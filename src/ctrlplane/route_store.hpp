// The control plane's route table: every encoded KAR route (primary path +
// driven-deflection protection + CRT route ID) plus the inverted indexes the
// incremental engine needs to answer "which routes can a link event touch?"
// without scanning the table.
//
// Group interning (docs/ctrlplane.md): routes sharing (src, dst) share one
// canonical path and so one encoding, so the store keeps liveness, core
// path, encoding, index footprint and version once per endpoint group, and
// a route (member) keeps only its group, tombstone flag and version stamp.
// Re-encoding a group writes one record whatever its size: a link event
// costs O(changed groups), not O(member routes).
//
// Version rule: a member reports its group's version when the group changed
// after the member's own stamp, and otherwise its own version — the install
// epoch when installed into a live group, 0 when installed into a dead one,
// the withdraw epoch once withdrawn.
//
// Index invariants — postings hold GroupIds:
//   * link index — a live group is reachable from every link its encoding
//     references: each primary-path hop, the source edge's uplink, and every
//     driven-deflection protection edge (assignment port -> link);
//   * dependency index — a group is reachable from every node whose distance
//     field or incident-link set its canonical path selection reads: the
//     source edge, every primary-path node, and all their neighbors (a dead
//     group keeps only its source edge, whose distance turning finite is the
//     only event that can revive it);
//   * path index — a group is reachable from every node where its canonical
//     next hop is chosen ({src} ∪ core path; {src} when dead): only those
//     groups can be flipped by a link-up tie at the node or hurt by the
//     node's distance increasing;
//   * node and path postings and the group records live in a slab owned by
//     the destination, so a reconvergence shard owning a set of
//     destinations touches only its own slabs — the sharded engine mutates
//     disjoint memory without locks. Group records never move;
//   * the link index and the live-route counter are the only structures
//     shared across destinations: sharded mutators buffer those side
//     effects in a ShardLog, replayed serially after the join (link-posting
//     append order is not observable — every consumer sorts or dedups);
//   * postings are append-only with lazy compaction: a lookup filters stale
//     entries against the group's current footprint and rewrites the
//     posting list when more than half of it was stale.
#pragma once

#include <bit>
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

/// Fixed-capacity bitset over NodeIds (the store sizes it to the topology).
class NodeMask {
 public:
  NodeMask() = default;
  explicit NodeMask(std::size_t bits) : words_((bits + 63) / 64) {}

  void set(std::size_t bit) { words_[bit >> 6] |= std::uint64_t{1} << (bit & 63); }
  [[nodiscard]] bool test(std::size_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }
  [[nodiscard]] bool intersects(const NodeMask& other) const {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }
  void clear() { words_.assign(words_.size(), 0); }

  /// Calls `fn(bit)` for every bit set here but not in `other` (which must
  /// have the same capacity), ascending.
  template <typename Fn>
  void for_each_not_in(const NodeMask& other, Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t masked =
          words_[w] & (w < other.words_.size() ? ~other.words_[w]
                                               : ~std::uint64_t{0});
      for (std::uint64_t bits = masked; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// A group's complete index footprint (dependency mask, path mask,
/// referenced links). For a live group it is a pure function of (src, core
/// path, encoding) on the static topology structure, so the engine builds
/// it once per distinct path and caches it.
struct IndexFootprint {
  NodeMask deps;
  /// Path membership: {src} ∪ core_path ({src} alone when dead). A subset
  /// of `deps` — the canonical next hop is *chosen at* these nodes.
  NodeMask path_nodes;
  /// Sorted link handles the current encoding references.
  std::vector<topo::LinkId> links;
};

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
  IndexFootprint footprint;
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

/// Side effects of a sharded mutation that land in structures shared
/// *across* destination shards (the link index and the live counter).
/// A reconvergence worker passes one to set_encoding()/set_dead() instead
/// of letting them write shared state; the engine replays every shard's
/// log serially with apply_shard_log() after the join. Replay order only
/// permutes link-posting append order, which no consumer observes.
struct ShardLog {
  std::vector<std::pair<topo::LinkId, GroupId>> link_appends;
  std::ptrdiff_t live_delta = 0;
};

/// Owns the groups, the members and the inverted indexes. Mutation goes
/// through the engine: add() registers a member, set_encoding()/set_dead()
/// swap in a group's reconverged state and reindex it.
class RouteStore {
 public:
  /// The topology derives dependency sets and link handles at (re)index
  /// time; it must outlive the store.
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
  [[nodiscard]] std::size_t live_count() const noexcept { return live_; }
  /// Routes tombstoned by set_withdrawn().
  [[nodiscard]] std::size_t withdrawn_count() const noexcept { return withdrawn_; }

  /// Destination edges with at least one route, first-appearance order.
  [[nodiscard]] const std::vector<topo::NodeId>& destinations() const noexcept {
    return destinations_;
  }

  /// Builds the index footprint a live group with this (src, core path,
  /// encoding) would get — link-state-independent, so it can be cached.
  [[nodiscard]] IndexFootprint build_footprint(
      topo::NodeId src, const std::vector<topo::NodeId>& core_path,
      const routing::EncodedRoute& route) const;

  /// Installs a fresh encoding (computed from `core_path`) into group `id`,
  /// stamps it `version` and reindexes it. A non-null `footprint` (equal to
  /// build_footprint(src, core_path, route)) is copied in instead of being
  /// rebuilt. A non-null `log` takes the cross-shard side effects instead
  /// of the shared structures — required whenever another thread may be
  /// mutating a different destination concurrently.
  void set_encoding(GroupId id, const std::vector<topo::NodeId>& core_path,
                    const routing::EncodedRoute& route, std::uint64_t version,
                    const IndexFootprint* footprint = nullptr,
                    ShardLog* log = nullptr);

  /// Marks group `id` dead (no usable path), stamps it `version` and
  /// shrinks its footprint to the revive trigger (the source edge's
  /// distance). `log` as above.
  void set_dead(GroupId id, std::uint64_t version, ShardLog* log = nullptr);

  /// Serially replays a shard's buffered cross-shard side effects. Must not
  /// run concurrently with any other store access.
  void apply_shard_log(const ShardLog& log);

  /// Marks `key` installed live: its own version becomes its join epoch.
  void set_installed(RouteKey key) { members_[key].stamped = true; }

  /// Tombstones `key` at `version`: hides it from clients without
  /// disturbing its slot. Callers reject double-withdrawal before reaching
  /// the store.
  void set_withdrawn(RouteKey key, std::uint64_t version);

  /// Eager sweep of every posting list: drops entries whose group no
  /// longer carries the indexed link/node in its current footprint (the
  /// same predicate the lazy per-lookup compaction applies), then sorts and
  /// dedups each rewritten list. Intended for idle windows between epochs
  /// (the daemon's background compaction); returns entries dropped.
  std::size_t compact_postings();

  /// Appends every group whose current encoding references `link`. May
  /// append a group more than once; callers dedup.
  void collect_link_dependents(topo::LinkId link, std::vector<GroupId>& out) const;

  /// Appends every group to `dst` whose dependency set contains `node`.
  void collect_node_dependents(topo::NodeId node, topo::NodeId dst,
                               std::vector<GroupId>& out) const;

  /// Appends every group (to `dst`, or to any destination) whose path
  /// membership set ({src} ∪ core path) contains `node` — the groups that
  /// choose a next hop there (file comment, path index).
  void collect_path_dependents(topo::NodeId node, topo::NodeId dst,
                               std::vector<GroupId>& out) const;
  void collect_path_dependents(topo::NodeId node, std::vector<GroupId>& out) const;

 private:
  /// Everything one destination owns: its groups and their node/path
  /// postings (indexed by NodeId). Created only in add() — always serial.
  struct DstSlab {
    std::vector<std::vector<GroupId>> node;
    std::vector<std::vector<GroupId>> path;
    std::deque<RouteGroup> groups;
  };

  /// Reindexes group `g` onto `next` by diff-append, then adopts it.
  void reindex(GroupId id, RouteGroup& g, const IndexFootprint& next,
               ShardLog* log);
  void add_live(std::ptrdiff_t delta, ShardLog* log);

  [[nodiscard]] DstSlab& slab(topo::NodeId dst) const { return *slabs_[dst]; }

  const topo::Topology* topo_;
  std::vector<RouteMember> members_;
  /// GroupId -> record in its destination's slab (heap-held, so the
  /// pointers survive moving the store).
  std::vector<RouteGroup*> groups_;
  std::vector<topo::NodeId> destinations_;
  /// By NodeId; null until the node is some route's destination. The
  /// slabs' postings are lazily compacted by const lookups.
  std::vector<std::unique_ptr<DstSlab>> slabs_;
  std::map<std::pair<topo::NodeId, topo::NodeId>, GroupId> group_of_;
  /// Postings by LinkId, shared across shards; lazily compacted.
  mutable std::vector<std::vector<GroupId>> link_index_;
  std::size_t live_ = 0;
  std::size_t withdrawn_ = 0;
};

}  // namespace kar::ctrlplane
