#include "routing/failover_install.hpp"

#include <algorithm>
#include <limits>

#include "routing/paths.hpp"

namespace kar::routing {

FailoverFib install_failover_fibs(
    const topo::Topology& topo, const std::vector<topo::NodeId>& destinations,
    const FailoverInstallOptions& options) {
  FailoverFib fib;
  std::vector<topo::NodeId> dsts = destinations;
  if (dsts.empty()) dsts = topo.nodes_of_kind(topo::NodeKind::kEdgeNode);

  const PathOptions path_options;  // hop metric; plan on the intact topology
  for (const topo::NodeId dst : dsts) {
    const std::vector<double> dist = distances_to(topo, dst, path_options);
    for (const topo::NodeId sw : topo.nodes_of_kind(topo::NodeKind::kCoreSwitch)) {
      if (dist[sw] == std::numeric_limits<double>::infinity()) continue;
      // Candidate ports ranked by the neighbor's distance to the
      // destination (strictly-downhill first => the primary is a
      // shortest-path next hop), stable on port index for determinism.
      struct Candidate {
        topo::PortIndex port;
        double neighbor_distance;
      };
      std::vector<Candidate> candidates;
      const auto links = topo.ports(sw);
      for (topo::PortIndex port = 0; port < links.size(); ++port) {
        const topo::NodeId neighbor = topo.link(links[port]).other(sw);
        if (neighbor != dst &&
            topo.kind(neighbor) == topo::NodeKind::kEdgeNode) {
          continue;  // never detour through a foreign edge
        }
        if (dist[neighbor] == std::numeric_limits<double>::infinity()) continue;
        if (!options.allow_uphill_backups && dist[neighbor] >= dist[sw]) {
          continue;
        }
        candidates.push_back(Candidate{port, dist[neighbor]});
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.neighbor_distance < b.neighbor_distance;
                       });
      if (candidates.empty()) continue;
      std::vector<topo::PortIndex> ports;
      for (const Candidate& c : candidates) {
        if (ports.size() >= options.max_ports_per_entry) break;
        ports.push_back(c.port);
      }
      fib.install(sw, dst, std::move(ports));
    }
  }
  return fib;
}

}  // namespace kar::routing
