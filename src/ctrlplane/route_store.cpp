#include "ctrlplane/route_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace kar::ctrlplane {

namespace {

void post(std::vector<GroupId>& posting, GroupId id) {
  if (posting.empty() || posting.back() != id) posting.push_back(id);
}

void sort_unique(std::vector<GroupId>& posting) {
  std::sort(posting.begin(), posting.end());
  posting.erase(std::unique(posting.begin(), posting.end()), posting.end());
}

}  // namespace

RouteStore::RouteStore(const topo::Topology& topology)
    : topo_(&topology),
      slabs_(topology.node_count()),
      link_index_(topology.link_count()) {}

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
    slabs_[dst]->node.resize(topo_->node_count());
    slabs_[dst]->path.resize(topo_->node_count());
    destinations_.push_back(dst);
  }
  const auto [it, founded] = group_of_.try_emplace(
      std::make_pair(src, dst), static_cast<GroupId>(groups_.size()));
  const GroupId id = it->second;
  if (founded) {
    RouteGroup& g = slab(dst).groups.emplace_back();
    g.src = src;
    g.dst = dst;
    g.footprint.deps = NodeMask(topo_->node_count());
    g.footprint.path_nodes = NodeMask(topo_->node_count());
    groups_.push_back(&g);
    set_dead(id, 0);  // indexes the revive trigger
  }
  RouteGroup& g = *groups_[id];
  const RouteKey key = members_.size();
  members_.push_back(RouteMember{id, false, false, epoch});
  g.members.push_back(key);
  if (g.live) ++live_;
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

void RouteStore::add_live(std::ptrdiff_t delta, ShardLog* log) {
  if (log != nullptr) {
    log->live_delta += delta;
  } else {
    live_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(live_) + delta);
  }
}

void RouteStore::set_encoding(GroupId id,
                              const std::vector<topo::NodeId>& core_path,
                              const routing::EncodedRoute& route,
                              std::uint64_t version,
                              const IndexFootprint* footprint, ShardLog* log) {
  RouteGroup& g = *groups_[id];
  if (!g.live) add_live(static_cast<std::ptrdiff_t>(g.members.size()), log);
  g.live = true;
  g.route = route;
  g.core_path = core_path;
  g.version = version;
  if (footprint != nullptr) {
    reindex(id, g, *footprint, log);
  } else {
    reindex(id, g, build_footprint(g.src, g.core_path, g.route), log);
  }
}

void RouteStore::set_dead(GroupId id, std::uint64_t version, ShardLog* log) {
  RouteGroup& g = *groups_[id];
  if (g.live) add_live(-static_cast<std::ptrdiff_t>(g.members.size()), log);
  g.live = false;
  g.route = routing::EncodedRoute{};
  g.core_path.clear();
  g.version = version;
  // A dead group revives only via d(src) changing.
  DstSlab& s = slab(g.dst);
  IndexFootprint& f = g.footprint;
  if (!f.deps.test(g.src)) post(s.node[g.src], id);
  if (!f.path_nodes.test(g.src)) post(s.path[g.src], id);
  f.deps.clear();
  f.path_nodes.clear();
  f.links.clear();
  f.deps.set(g.src);
  f.path_nodes.set(g.src);
}

void RouteStore::set_withdrawn(RouteKey key, std::uint64_t version) {
  RouteMember& m = members_[key];
  if (!m.withdrawn) ++withdrawn_;
  m.withdrawn = true;
  m.stamped = true;
  m.stamp = version;
}

void RouteStore::apply_shard_log(const ShardLog& log) {
  add_live(log.live_delta, nullptr);
  for (const auto& [link, id] : log.link_appends) post(link_index_[link], id);
}

std::size_t RouteStore::compact_postings() {
  std::size_t dropped = 0;
  const auto rewrite = [&](std::vector<GroupId>& posting, const auto& keep) {
    std::vector<GroupId> fresh;
    fresh.reserve(posting.size());
    for (const GroupId id : posting) {
      if (keep(*groups_[id])) fresh.push_back(id);
    }
    sort_unique(fresh);
    dropped += posting.size() - fresh.size();
    posting = std::move(fresh);
  };
  for (topo::LinkId link = 0; link < link_index_.size(); ++link) {
    rewrite(link_index_[link], [&](const RouteGroup& g) {
      return std::binary_search(g.footprint.links.begin(),
                                g.footprint.links.end(), link);
    });
  }
  for (const topo::NodeId dst : destinations_) {
    DstSlab& s = slab(dst);
    for (topo::NodeId node = 0; node < s.node.size(); ++node) {
      rewrite(s.node[node],
              [&](const RouteGroup& g) { return g.footprint.deps.test(node); });
      rewrite(s.path[node], [&](const RouteGroup& g) {
        return g.footprint.path_nodes.test(node);
      });
    }
  }
  return dropped;
}

IndexFootprint RouteStore::build_footprint(
    topo::NodeId src, const std::vector<topo::NodeId>& core_path,
    const routing::EncodedRoute& route) const {
  IndexFootprint f;
  f.deps = NodeMask(topo_->node_count());
  f.path_nodes = NodeMask(topo_->node_count());
  // Canonical path selection at a node reads the distances of *all* its
  // neighbors plus the state of its incident links, so the dependency set
  // closes over the neighborhood of the source and every path node.
  const auto depend_on_neighborhood = [&](topo::NodeId node) {
    f.deps.set(node);
    for (const topo::LinkId link_id : topo_->ports(node)) {
      f.deps.set(topo_->link(link_id).other(node));
    }
  };
  f.path_nodes.set(src);
  depend_on_neighborhood(src);
  for (const topo::NodeId node : core_path) {
    depend_on_neighborhood(node);
    f.path_nodes.set(node);
  }

  // Link set: the source uplink plus every assignment's egress link
  // (primary hops and protection edges alike).
  if (const auto uplink_port = topo_->port_to(src, core_path.front())) {
    f.links.push_back(topo_->link_at(src, *uplink_port));
  }
  for (const routing::PortAssignment& a : route.assignments) {
    const topo::LinkId link = topo_->link_at(a.node, a.port);
    if (link != topo::kInvalidLink) f.links.push_back(link);
  }
  std::sort(f.links.begin(), f.links.end());
  f.links.erase(std::unique(f.links.begin(), f.links.end()), f.links.end());
  return f;
}

void RouteStore::reindex(GroupId id, RouteGroup& g, const IndexFootprint& next,
                         ShardLog* log) {
  // Diff-append: a bit already set in the old mask means the group is
  // already in that posting (scans only drop a group once its bit clears),
  // so only newly set bits and newly referenced links need an append. This
  // keeps reinstall cost proportional to how much the footprint moved, not
  // to its size, and bounds posting growth under path flapping.
  DstSlab& s = slab(g.dst);
  IndexFootprint& cur = g.footprint;
  next.deps.for_each_not_in(cur.deps,
                            [&](std::size_t node) { post(s.node[node], id); });
  next.path_nodes.for_each_not_in(
      cur.path_nodes, [&](std::size_t node) { post(s.path[node], id); });
  for (const topo::LinkId link : next.links) {
    if (!std::binary_search(cur.links.begin(), cur.links.end(), link)) {
      if (log != nullptr) {
        log->link_appends.emplace_back(link, id);
      } else {
        post(link_index_[link], id);
      }
    }
  }
  cur.deps = next.deps;
  cur.path_nodes = next.path_nodes;
  cur.links = next.links;
}

namespace {

/// Shared posting scan: append groups passing `keep`, lazily compacting
/// the posting when more than half of it was stale.
template <typename Keep>
void scan_posting(std::vector<GroupId>& posting, const Keep& keep,
                  std::vector<GroupId>& out) {
  std::size_t kept = 0;
  for (const GroupId id : posting) {
    if (keep(id)) {
      out.push_back(id);
      ++kept;
    }
  }
  if (kept * 2 < posting.size()) {
    posting.assign(out.end() - static_cast<std::ptrdiff_t>(kept), out.end());
    sort_unique(posting);
  }
}

}  // namespace

void RouteStore::collect_link_dependents(topo::LinkId link,
                                         std::vector<GroupId>& out) const {
  scan_posting(
      link_index_[link],
      [&](GroupId id) {
        const std::vector<topo::LinkId>& links = groups_[id]->footprint.links;
        return std::binary_search(links.begin(), links.end(), link);
      },
      out);
}

void RouteStore::collect_node_dependents(topo::NodeId node, topo::NodeId dst,
                                         std::vector<GroupId>& out) const {
  if (!slabs_[dst]) return;
  scan_posting(
      slab(dst).node[node],
      [&](GroupId id) { return groups_[id]->footprint.deps.test(node); }, out);
}

void RouteStore::collect_path_dependents(topo::NodeId node, topo::NodeId dst,
                                         std::vector<GroupId>& out) const {
  if (!slabs_[dst]) return;
  scan_posting(
      slab(dst).path[node],
      [&](GroupId id) { return groups_[id]->footprint.path_nodes.test(node); },
      out);
}

void RouteStore::collect_path_dependents(topo::NodeId node,
                                         std::vector<GroupId>& out) const {
  for (const topo::NodeId dst : destinations_) {
    collect_path_dependents(node, dst, out);
  }
}

}  // namespace kar::ctrlplane
