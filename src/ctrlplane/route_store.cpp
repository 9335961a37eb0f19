#include "ctrlplane/route_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace kar::ctrlplane {

namespace {

/// Marks a slot entry whose posting no longer holds the group.
constexpr std::uint32_t kNoSlot = 0xffffffffu;

}  // namespace

RouteStore::RouteStore(const topo::Topology& topology)
    : topo_(&topology), slabs_(topology.node_count()) {}

void RouteStore::check_endpoints(topo::NodeId src, topo::NodeId dst) const {
  for (const auto& [node, role] : {std::pair{src, "source"},
                                   std::pair{dst, "destination"}}) {
    if (topo_->kind(node) != topo::NodeKind::kEdgeNode) {
      throw std::invalid_argument(std::string("route ") + role + " " +
                                  topo_->name(node) + " is not an edge node");
    }
  }
}

RouteKey RouteStore::add(topo::NodeId src, topo::NodeId dst,
                         std::uint64_t epoch) {
  check_endpoints(src, dst);
  if (!slabs_[dst]) {
    // The destination's slab is born here, while the store is quiescent:
    // shards later index into existing slabs only.
    slabs_[dst] = std::make_unique<DstSlab>();
    slabs_[dst]->path.resize(topo_->node_count());
    destinations_.push_back(dst);
  }
  DstSlab& s = slab(dst);
  const auto [it, founded] = group_of_.try_emplace(
      std::make_pair(src, dst), static_cast<GroupId>(groups_.size()));
  const GroupId id = it->second;
  if (founded) {
    RouteGroup& g = s.groups.emplace_back();
    g.src = src;
    g.dst = dst;
    // Born dead: the path set is the source alone.
    std::vector<GroupId>& posting = s.path[src];
    g.slots.assign(1, static_cast<std::uint32_t>(posting.size()));
    posting.push_back(id);
    groups_.push_back(&g);
  }
  RouteGroup& g = *groups_[id];
  const RouteKey key = members_.size();
  members_.push_back(RouteMember{id, false, false, epoch});
  g.members.push_back(key);
  if (g.live) ++s.live;
  return key;
}

StoredRoute RouteStore::get(RouteKey key) const {
  const RouteMember& m = members_[key];
  const RouteGroup& g = *groups_[m.group];
  // The version rule (file comment of route_store.hpp).
  const std::uint64_t version =
      g.version > m.stamp ? g.version : (m.stamped ? m.stamp : 0);
  return StoredRoute{key,         m.group, g.src,   g.dst,       g.live,
                     m.withdrawn, version, g.route, g.core_path};
}

std::size_t RouteStore::live_count() const noexcept {
  std::size_t live = 0;
  for (const topo::NodeId dst : destinations_) live += slab(dst).live;
  return live;
}

void RouteStore::set_encoding(GroupId id,
                              const std::vector<topo::NodeId>& core_path,
                              const routing::EncodedRoute& route,
                              std::uint64_t version) {
  RouteGroup& g = *groups_[id];
  DstSlab& s = slab(g.dst);
  if (!g.live) s.live += g.members.size();
  unpost_core(g, s);
  g.live = true;
  g.route = route;
  g.core_path = core_path;
  g.version = version;
  post_core(id, g, s);
}

void RouteStore::set_dead(GroupId id, std::uint64_t version) {
  RouteGroup& g = *groups_[id];
  DstSlab& s = slab(g.dst);
  if (g.live) s.live -= g.members.size();
  unpost_core(g, s);
  g.live = false;
  g.route = routing::EncodedRoute{};
  g.core_path.clear();
  g.version = version;
}

void RouteStore::set_withdrawn(RouteKey key, std::uint64_t version) {
  RouteMember& m = members_[key];
  if (!m.withdrawn) ++withdrawn_;
  m.withdrawn = true;
  m.stamped = true;
  m.stamp = version;
}

void RouteStore::unpost_core(RouteGroup& g, DstSlab& s) {
  for (std::size_t i = 0; i < g.core_path.size(); ++i) {
    const topo::NodeId node = g.core_path[i];
    std::vector<GroupId>& posting = s.path[node];
    const std::uint32_t slot = g.slots[i + 1];
    g.slots[i + 1] = kNoSlot;
    // Swap-remove: the posting's last group moves into the freed slot, and
    // its slot entry for this node follows it (the entry pointing at the
    // old last index — g's own when a restored core path repeats a node).
    const auto last = static_cast<std::uint32_t>(posting.size() - 1);
    const GroupId moved = posting[last];
    posting[slot] = moved;
    posting.pop_back();
    if (slot == last) continue;
    RouteGroup& m = *groups_[moved];
    for (std::size_t j = 0; j < m.slots.size(); ++j) {
      const topo::NodeId at = j == 0 ? m.src : m.core_path[j - 1];
      if (at == node && m.slots[j] == last) {
        m.slots[j] = slot;
        break;
      }
    }
  }
  g.slots.resize(1);
}

void RouteStore::post_core(GroupId id, RouteGroup& g, DstSlab& s) {
  for (const topo::NodeId node : g.core_path) {
    std::vector<GroupId>& posting = s.path[node];
    g.slots.push_back(static_cast<std::uint32_t>(posting.size()));
    posting.push_back(id);
  }
}

}  // namespace kar::ctrlplane
