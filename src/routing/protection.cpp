#include "routing/protection.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_set>

#include "routing/paths.hpp"
#include "rns/biguint.hpp"
#include "rns/crt.hpp"

namespace kar::routing {

namespace {

/// Hop distance from every node to the nearest node of `sources` (BFS over
/// core switches, ignoring link state — protection is planned on the
/// intended topology).
std::vector<std::size_t> hops_from_set(const topo::Topology& topo,
                                       const std::vector<topo::NodeId>& sources) {
  constexpr auto kUnreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(topo.node_count(), kUnreached);
  std::queue<topo::NodeId> frontier;
  for (const topo::NodeId s : sources) {
    dist[s] = 0;
    frontier.push(s);
  }
  while (!frontier.empty()) {
    const topo::NodeId cur = frontier.front();
    frontier.pop();
    for (const topo::LinkId link_id : topo.ports(cur)) {
      const topo::NodeId next = topo.link(link_id).other(cur);
      if (topo.kind(next) != topo::NodeKind::kCoreSwitch) continue;
      if (dist[next] != kUnreached) continue;
      dist[next] = dist[cur] + 1;
      frontier.push(next);
    }
  }
  return dist;
}

}  // namespace

std::vector<std::pair<topo::NodeId, topo::NodeId>> plan_driven_deflections(
    const topo::Topology& topo, const std::vector<topo::NodeId>& core_path,
    topo::NodeId dst_edge, const PlannerOptions& options) {
  const PathOptions path_options{PathMetric::kHopCount, /*ignore_failures=*/true};
  const std::vector<double> to_dst = distances_to(topo, dst_edge, path_options);
  const std::vector<std::size_t> from_path = hops_from_set(topo, core_path);

  const std::unordered_set<topo::NodeId> on_path(core_path.begin(),
                                                 core_path.end());

  struct Candidate {
    topo::NodeId node;
    topo::NodeId next_hop;
    std::size_t path_distance;
    double dst_distance;
  };
  std::vector<Candidate> candidates;
  for (const topo::NodeId node : topo.nodes_of_kind(topo::NodeKind::kCoreSwitch)) {
    if (on_path.contains(node)) continue;
    if (to_dst[node] == std::numeric_limits<double>::infinity()) continue;
    if (from_path[node] == std::numeric_limits<std::size_t>::max()) continue;
    if (from_path[node] > options.max_distance_from_path) continue;
    // Next hop: the neighbor strictly closer to the destination; ties are
    // broken toward smaller switch IDs for determinism.
    topo::NodeId best = topo::kInvalidNode;
    for (const topo::LinkId link_id : topo.ports(node)) {
      const topo::NodeId next = topo.link(link_id).other(node);
      if (next != dst_edge && topo.kind(next) != topo::NodeKind::kCoreSwitch) {
        continue;
      }
      if (to_dst[next] + 1.0 != to_dst[node]) continue;  // not downhill
      if (best == topo::kInvalidNode) {
        best = next;
        continue;
      }
      const bool next_is_switch = topo.kind(next) == topo::NodeKind::kCoreSwitch;
      const bool best_is_switch =
          best != dst_edge && topo.kind(best) == topo::NodeKind::kCoreSwitch;
      if (next_is_switch && best_is_switch &&
          topo.switch_id(next) < topo.switch_id(best)) {
        best = next;
      }
    }
    if (best == topo::kInvalidNode) continue;
    candidates.push_back(Candidate{node, best, from_path[node], to_dst[node]});
  }

  // Most useful first: nearest to the path, then nearest to the
  // destination, then smallest switch ID (cheapest bits) as tiebreak.
  std::sort(candidates.begin(), candidates.end(),
            [&](const Candidate& a, const Candidate& b) {
              if (a.path_distance != b.path_distance) {
                return a.path_distance < b.path_distance;
              }
              if (a.dst_distance != b.dst_distance) {
                return a.dst_distance < b.dst_distance;
              }
              return topo.switch_id(a.node) < topo.switch_id(b.node);
            });

  // Greedy add under the bit / count budget.
  rns::BigUint product(1);
  for (const topo::NodeId n : core_path) product *= rns::BigUint(topo.switch_id(n));

  std::vector<std::pair<topo::NodeId, topo::NodeId>> plan;
  std::size_t total_switches = core_path.size();
  for (const Candidate& c : candidates) {
    if (total_switches >= options.max_switches) break;
    const rns::BigUint with = product * rns::BigUint(topo.switch_id(c.node));
    if (rns::ceil_log2(with - rns::BigUint(1)) > options.max_route_id_bits) {
      continue;  // this switch is too expensive; a cheaper one may still fit
    }
    product = with;
    plan.emplace_back(c.node, c.next_hop);
    ++total_switches;
  }
  return plan;
}

}  // namespace kar::routing
