#include "ctrlplane/spt.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace kar::ctrlplane {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

DynamicSpt::DynamicSpt(const topo::Topology& topology, topo::NodeId destination,
                       routing::PathMetric metric,
                       std::size_t fallback_threshold)
    : topo_(&topology),
      dst_(destination),
      metric_(metric),
      threshold_(fallback_threshold) {
  const std::size_t n = topo_->node_count();
  if (destination >= n) throw std::out_of_range("DynamicSpt: bad destination");
  dist_.assign(n, kInf);
  parent_.assign(n, topo::kInvalidNode);
  parent_link_.assign(n, topo::kInvalidLink);
  next_hop_.assign(n, topo::kInvalidNode);
  mark_.assign(n, 0);
  affected_flag_.assign(n, 0);
  old_dist_.assign(n, kInf);
  rebuild();
}

bool DynamicSpt::propagates(topo::NodeId node) const {
  // Mirrors routing::distances_to: edge nodes other than the destination
  // terminate the KAR domain and never relay relaxations.
  return node == dst_ || topo_->kind(node) == topo::NodeKind::kCoreSwitch;
}

void DynamicSpt::rebuild() {
  std::fill(dist_.begin(), dist_.end(), kInf);
  std::fill(parent_.begin(), parent_.end(), topo::kInvalidNode);
  std::fill(parent_link_.begin(), parent_link_.end(), topo::kInvalidLink);
  dist_[dst_] = 0.0;
  heap_.emplace(0.0, dst_);
  while (!heap_.empty()) {
    const auto [d, cur] = heap_.top();
    heap_.pop();
    if (d > dist_[cur]) continue;
    if (!propagates(cur)) continue;
    for (const topo::LinkId link_id : topo_->ports(cur)) {
      const topo::Link& link = topo_->link(link_id);
      if (!link.up) continue;
      const topo::NodeId next = link.other(cur);
      const double nd = d + routing::link_cost(link, metric_);
      if (nd < dist_[next]) {
        dist_[next] = nd;
        parent_[next] = cur;
        parent_link_[next] = link_id;
        heap_.emplace(nd, next);
      }
    }
  }
  for (topo::NodeId v = 0; v < next_hop_.size(); ++v) {
    next_hop_[v] = compute_next_hop(v);
  }
}

SptUpdateStats DynamicSpt::apply_link_event(
    topo::LinkId link, bool up, std::vector<topo::NodeId>& changed) {
  moved_.clear();
  const SptUpdateStats stats = up ? handle_insert(link) : handle_delete(link);
  if (stats.fallback) {
    old_next_hop_ = next_hop_;
    rebuild();
    for (topo::NodeId v = 0; v < next_hop_.size(); ++v) {
      if (next_hop_[v] != old_next_hop_[v]) changed.push_back(v);
    }
    return stats;
  }
  // A next hop reads its node's incident links and its neighbors'
  // distances: only the event link's endpoints and the neighbors of moved
  // nodes can have a different argmin now.
  ++epoch_;
  const topo::Link& l = topo_->link(link);
  refresh_next_hop(l.a.node, changed);
  refresh_next_hop(l.b.node, changed);
  for (const topo::NodeId node : moved_) {
    for (const topo::LinkId link_id : topo_->ports(node)) {
      refresh_next_hop(topo_->link(link_id).other(node), changed);
    }
  }
  return stats;
}

void DynamicSpt::refresh_next_hop(topo::NodeId node,
                                  std::vector<topo::NodeId>& changed) {
  if (mark_[node] == epoch_) return;
  mark_[node] = epoch_;
  const topo::NodeId next = compute_next_hop(node);
  if (next == next_hop_[node]) return;
  next_hop_[node] = next;
  changed.push_back(node);
}

SptUpdateStats DynamicSpt::handle_insert(topo::LinkId link) {
  const topo::Link& l = topo_->link(link);
  // A coalesced epoch can replay a repair that a later (also pending)
  // failure already reverted; the topology holds the final say.
  if (!l.up) return SptUpdateStats{0, false};
  const double w = routing::link_cost(l, metric_);
  ++epoch_;

  const auto improve = [&](topo::NodeId node, topo::NodeId via,
                           topo::LinkId via_link, double nd) {
    if (nd >= dist_[node]) return;
    if (mark_[node] != epoch_) {
      mark_[node] = epoch_;
      moved_.push_back(node);
    }
    dist_[node] = nd;
    parent_[node] = via;
    parent_link_[node] = via_link;
    heap_.emplace(nd, node);
  };

  // Seed: the new link can only lower a distance through an endpoint that
  // relays relaxations (the destination or a core switch).
  if (propagates(l.b.node) && dist_[l.b.node] < kInf) {
    improve(l.a.node, l.b.node, link, dist_[l.b.node] + w);
  }
  if (propagates(l.a.node) && dist_[l.a.node] < kInf) {
    improve(l.b.node, l.a.node, link, dist_[l.a.node] + w);
  }

  while (!heap_.empty()) {
    const auto [d, cur] = heap_.top();
    heap_.pop();
    if (d > dist_[cur]) continue;
    if (!propagates(cur)) continue;
    for (const topo::LinkId link_id : topo_->ports(cur)) {
      const topo::Link& nl = topo_->link(link_id);
      if (!nl.up) continue;
      improve(nl.other(cur), cur, link_id, d + routing::link_cost(nl, metric_));
    }
  }

  // Every listed node strictly improved (improve() only fires on <).
  return SptUpdateStats{moved_.size(), false};
}

SptUpdateStats DynamicSpt::handle_delete(topo::LinkId link) {
  const topo::Link& l = topo_->link(link);
  // A non-tree link carries no settled distance: removing it changes
  // nothing (every shortest distance is realised along tree edges). The
  // tree child of a tree link is the endpoint whose parent link it is.
  topo::NodeId seed = topo::kInvalidNode;
  if (parent_link_[l.a.node] == link) {
    seed = l.a.node;
  } else if (parent_link_[l.b.node] == link) {
    seed = l.b.node;
  } else {
    return SptUpdateStats{0, false};
  }

  // Affected subtree A: nodes whose tree path to the root crosses `seed`,
  // classified by walking parent chains with epoch-stamped memoisation.
  ++epoch_;
  mark_[seed] = epoch_;
  affected_flag_[seed] = 1;
  if (dist_[dst_] == 0.0) {  // root is always classified out of A
    mark_[dst_] = epoch_;
    affected_flag_[dst_] = 0;
  }
  std::vector<topo::NodeId>& affected = affected_;
  affected.assign(1, seed);
  std::vector<topo::NodeId>& chain = chain_;
  const std::size_t n = topo_->node_count();
  for (topo::NodeId v = 0; v < n; ++v) {
    if (dist_[v] == kInf || mark_[v] == epoch_) continue;
    chain.clear();
    topo::NodeId cur = v;
    std::uint8_t verdict = 0;
    while (true) {
      if (mark_[cur] == epoch_) {
        verdict = affected_flag_[cur];
        break;
      }
      chain.push_back(cur);
      const topo::NodeId p = parent_[cur];
      if (p == topo::kInvalidNode) {  // reached the root
        verdict = 0;
        break;
      }
      cur = p;
    }
    for (const topo::NodeId node : chain) {
      mark_[node] = epoch_;
      affected_flag_[node] = verdict;
      if (verdict != 0) affected.push_back(node);
    }
  }

  if (affected.size() > threshold_) return SptUpdateStats{dist_.size(), true};

  const auto in_affected = [&](topo::NodeId node) {
    return mark_[node] == epoch_ && affected_flag_[node] == 1;
  };

  // Detach A, remembering old distances for the moved-set diff. On a lone
  // delete, boundary distances (outside A) are already exact: deletion
  // cannot lower them, and their tree paths avoid the dead link.
  for (const topo::NodeId v : affected) {
    old_dist_[v] = dist_[v];
    dist_[v] = kInf;
    parent_[v] = topo::kInvalidNode;
    parent_link_[v] = topo::kInvalidLink;
  }

  for (const topo::NodeId v : affected) {
    for (const topo::LinkId link_id : topo_->ports(v)) {
      const topo::Link& nl = topo_->link(link_id);
      if (!nl.up) continue;
      const topo::NodeId next = nl.other(v);
      if (in_affected(next) || !propagates(next)) continue;
      if (dist_[next] == kInf) continue;
      const double cand = dist_[next] + routing::link_cost(nl, metric_);
      if (cand < dist_[v]) {
        dist_[v] = cand;
        parent_[v] = next;
        parent_link_[v] = link_id;
      }
    }
    if (dist_[v] < kInf) heap_.emplace(dist_[v], v);
  }

  // Dijkstra from A's boundary: settles A. It relaxes into nodes outside A
  // too, which can only improve in a coalesced epoch — there the topology
  // already holds a later event's repair, A may settle below its old
  // distances through it, and that gain must flow on (the repair's own
  // event seeds only its endpoints). Such nodes are flagged 2 and listed
  // once in moved_; on a lone delete none is.
  while (!heap_.empty()) {
    const auto [d, cur] = heap_.top();
    heap_.pop();
    if (d > dist_[cur]) continue;
    if (!propagates(cur)) continue;
    for (const topo::LinkId link_id : topo_->ports(cur)) {
      const topo::Link& nl = topo_->link(link_id);
      if (!nl.up) continue;
      const topo::NodeId next = nl.other(cur);
      const double cand = d + routing::link_cost(nl, metric_);
      if (cand < dist_[next]) {
        if (mark_[next] != epoch_ || affected_flag_[next] == 0) {
          mark_[next] = epoch_;
          affected_flag_[next] = 2;
          moved_.push_back(next);
        }
        dist_[next] = cand;
        parent_[next] = cur;
        parent_link_[next] = link_id;
        heap_.emplace(cand, next);
      }
    }
  }

  // Every node flagged outside A strictly improved and is listed already.
  const std::size_t lowered = moved_.size();
  for (const topo::NodeId v : affected) {
    if (dist_[v] != old_dist_[v]) moved_.push_back(v);
  }
  return SptUpdateStats{affected.size() + lowered, false};
}

topo::NodeId DynamicSpt::compute_next_hop(topo::NodeId from) const {
  if (from == dst_) return topo::kInvalidNode;
  topo::NodeId best = topo::kInvalidNode;
  double best_cost = kInf;
  for (const topo::LinkId link_id : topo_->ports(from)) {
    const topo::Link& link = topo_->link(link_id);
    const topo::NodeId next = link.other(from);
    // Intermediate hops must forward: only the destination itself or core
    // switches qualify as next hops.
    if (next != dst_ && topo_->kind(next) != topo::NodeKind::kCoreSwitch) continue;
    if (!link.up) continue;
    if (dist_[next] == kInf) continue;
    const double cand = dist_[next] + routing::link_cost(link, metric_);
    if (cand < best_cost || (cand == best_cost && next < best)) {
      best_cost = cand;
      best = next;
    }
  }
  return best;
}

bool DynamicSpt::canonical_path(topo::NodeId from,
                                std::vector<topo::NodeId>& nodes) const {
  nodes.assign(1, from);
  if (from != dst_ && dist_[from] == kInf) return false;
  for (topo::NodeId cur = from; cur != dst_;) {
    cur = next_hop_[cur];
    if (cur == topo::kInvalidNode) return false;
    nodes.push_back(cur);
    if (nodes.size() > topo_->node_count() + 1) {
      throw std::logic_error("DynamicSpt::canonical_path: walk did not reach " +
                             topo_->name(dst_) + " (inconsistent distances)");
    }
  }
  return true;
}

}  // namespace kar::ctrlplane
