// The control plane's route table: every encoded KAR route (primary path +
// driven-deflection protection + CRT route ID) plus the one inverted index
// the incremental engine needs to answer "which routes does a next-hop
// change touch?" without scanning the table.
//
// Group interning (docs/ctrlplane.md): routes sharing (src, dst) share one
// canonical path and so one encoding, so the store keeps liveness, core
// path, encoding and version once per endpoint group, and a route (member)
// keeps only its group, tombstone flag and version stamp. Re-encoding a
// group writes one record whatever its size: a link event costs
// O(changed groups), not O(member routes).
//
// Version rule: a member reports its group's version when the group changed
// after the member's own stamp, and otherwise its own version — the install
// epoch when installed into a live group, 0 when installed into a dead one,
// the withdraw epoch once withdrawn.
//
// Path index: the posting of node n for destination d holds exactly the
// groups to d whose path set — {src} ∪ core path, {src} alone when dead —
// contains n, once each. A group's canonical path is the walk of its
// destination's next-hop table from its source, so it can change only when
// the entry at one of these nodes does (docs/ctrlplane.md, exactness
// argument). A reindex swap-removes the group from its old core nodes'
// postings (each group records its slot in every posting it sits in) and
// appends it to the new ones, so postings never hold stale entries and
// never need compacting. Postings, group records and the live-route count
// live in a slab owned by the destination, so a reconvergence shard owning
// a set of destinations touches only its own slabs — the sharded engine
// mutates disjoint memory without locks. Group records never move.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "routing/encoded_route.hpp"
#include "topology/graph.hpp"

namespace kar::ctrlplane {

/// Dense route handle: the i-th added route has key i.
using RouteKey = std::uint64_t;
/// Dense endpoint-group handle: groups are numbered in first-member order.
using GroupId = std::uint32_t;

/// The state every route of one (src, dst) endpoint group shares. `route`
/// and `core_path` are meaningful only while `live`; a dead group (no
/// usable path) keeps its endpoints and revives on repair.
struct RouteGroup {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  bool live = false;
  /// The primary core path (switch handles, ingress to egress) the
  /// encoding was built from; empty when dead. It is the change detector.
  std::vector<topo::NodeId> core_path;
  routing::EncodedRoute route;
  /// The group's index in each path posting it sits in: slots[0] in its
  /// source's, slots[i + 1] in core_path[i]'s.
  std::vector<std::uint32_t> slots;
  /// Epoch of the group's last state change (0 = never changed).
  std::uint64_t version = 0;
  /// Member keys, ascending, withdrawn ones included (docs/daemon.md).
  std::vector<RouteKey> members;
};

/// One route's own state; everything else is its group's.
struct RouteMember {
  GroupId group = 0;
  bool withdrawn = false;  ///< Tombstone: hidden from clients.
  /// The member's own version is `stamp` when set, 0 when not (installed
  /// into a dead group and not withdrawn since).
  bool stamped = false;
  /// Epoch of its own last write (join or withdraw); only later group
  /// changes restamp it.
  std::uint64_t stamp = 0;
};

/// By-value view of one route. `route` and `core_path` refer into the group
/// record, which never moves, so they stay valid for the store's lifetime
/// (and read the group's state at the time of access).
struct StoredRoute {
  RouteKey key;
  GroupId group;
  topo::NodeId src;
  topo::NodeId dst;
  bool live;
  bool withdrawn;
  /// Update epoch that last changed this route (0 = initial load).
  std::uint64_t version;
  const routing::EncodedRoute& route;
  const std::vector<topo::NodeId>& core_path;
};

/// Owns the groups, the members and the path index. Mutation goes through
/// the engine: add() registers a member, set_encoding()/set_dead() swap in
/// a group's reconverged state and reindex it. Calls that touch only one
/// destination's groups may run concurrently with calls on another's.
class RouteStore {
 public:
  /// The topology sizes the path index; it must outlive the store.
  explicit RouteStore(const topo::Topology& topology);

  /// Registers a route for (src, dst) at engine epoch `epoch`, founding its
  /// group (dead, version 0) on first sight of the pair. The member starts
  /// unstamped (see RouteMember). Keys are dense, in insertion order.
  RouteKey add(topo::NodeId src, topo::NodeId dst, std::uint64_t epoch = 0);
  /// Throws std::invalid_argument unless both endpoints are edge nodes.
  void check_endpoints(topo::NodeId src, topo::NodeId dst) const;

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }
  [[nodiscard]] StoredRoute get(RouteKey key) const;
  [[nodiscard]] const RouteMember& member(RouteKey key) const {
    return members_[key];
  }
  [[nodiscard]] const RouteGroup& group(GroupId id) const { return *groups_[id]; }

  /// Routes currently live (members of live groups).
  [[nodiscard]] std::size_t live_count() const noexcept;
  /// Routes tombstoned by set_withdrawn().
  [[nodiscard]] std::size_t withdrawn_count() const noexcept { return withdrawn_; }

  /// Destination edges with at least one route, first-appearance order.
  [[nodiscard]] const std::vector<topo::NodeId>& destinations() const noexcept {
    return destinations_;
  }

  /// Installs a fresh encoding (computed from `core_path`) into group `id`,
  /// stamps it `version` and reindexes it.
  void set_encoding(GroupId id, const std::vector<topo::NodeId>& core_path,
                    const routing::EncodedRoute& route, std::uint64_t version);

  /// Marks group `id` dead (no usable path), stamps it `version` and
  /// shrinks its path set to its source: only a change of the source's
  /// next hop can revive it.
  void set_dead(GroupId id, std::uint64_t version);

  /// Marks `key` installed live: its own version becomes its join epoch.
  void set_installed(RouteKey key) { members_[key].stamped = true; }

  /// Tombstones `key` at `version`: hides it from clients without
  /// disturbing its slot. Callers reject double-withdrawal before reaching
  /// the store.
  void set_withdrawn(RouteKey key, std::uint64_t version);

  /// The groups to `dst` whose path set contains `node` (file comment), in
  /// no particular order. `dst` must be one of destinations().
  [[nodiscard]] const std::vector<GroupId>& path_posting(
      topo::NodeId dst, topo::NodeId node) const {
    return slab(dst).path[node];
  }

 private:
  /// Everything one destination owns: its groups, their path postings
  /// (indexed by NodeId) and their live member count. Created only in
  /// add() — always serial.
  struct DstSlab {
    std::vector<std::vector<GroupId>> path;
    std::deque<RouteGroup> groups;
    std::size_t live = 0;
  };

  /// Removes group `g` from the postings of its core path's nodes.
  void unpost_core(RouteGroup& g, DstSlab& s);
  /// Appends group `id` to the postings of its core path's nodes.
  static void post_core(GroupId id, RouteGroup& g, DstSlab& s);

  [[nodiscard]] DstSlab& slab(topo::NodeId dst) const { return *slabs_[dst]; }

  const topo::Topology* topo_;
  std::vector<RouteMember> members_;
  /// GroupId -> record in its destination's slab (heap-held, so the
  /// pointers survive moving the store).
  std::vector<RouteGroup*> groups_;
  std::vector<topo::NodeId> destinations_;
  /// By NodeId; null until the node is some route's destination.
  std::vector<std::unique_ptr<DstSlab>> slabs_;
  std::map<std::pair<topo::NodeId, topo::NodeId>, GroupId> group_of_;
  std::size_t withdrawn_ = 0;
};

}  // namespace kar::ctrlplane
