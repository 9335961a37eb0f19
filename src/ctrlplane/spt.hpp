// Per-destination reverse shortest-path tree with incremental maintenance
// (Ramalingam–Reps-style dynamic SSSP, specialised to undirected KAR cores).
//
// The tree is rooted at one destination edge node and mirrors the exact
// semantics of routing::distances_to: symmetric link costs, and edge nodes
// other than the destination never propagate relaxations (they terminate
// the KAR domain). On a link-down event only the *affected subtree* — the
// nodes whose tree path to the root crosses the dead link — is re-settled
// by a Dijkstra seeded from its boundary (which reaches past the subtree
// only in a coalesced epoch, see DistanceMoves); on a link-up event the
// new link's endpoints seed a relaxation cascade. When
// the affected subtree outgrows `fallback_threshold` the update falls back
// to a full rebuild (the classic dynamic-SSSP escape hatch: past a certain
// dirty-frontier size the incremental machinery costs more than Dijkstra).
//
// Path extraction is *canonical*, not tree-based: the next hop at u is the
// usable neighbor minimising cost(u,n) + d(n), ties broken toward the
// smaller NodeId. That makes the extracted path a pure function of the
// distance field and the link states — distances are unique whether they
// were maintained incrementally or rebuilt from scratch, so the incremental
// and full engines provably extract identical paths (the property
// tests/test_ctrlplane_differential.cpp checks end to end).
//
// The tree keeps that argmin as a table — one canonical next hop per node —
// so a path walk is a chain of table reads into a caller-owned vector, with
// no adjacency scan and no allocation. rebuild() fills the whole table. An
// incremental update refreshes only the entries whose inputs can have
// moved: a next hop reads nothing but its node's incident link states and
// its neighbors' distances, so the refresh set is the event link's two
// endpoints plus every neighbor of every node whose distance changed. The
// full-recompute engine rebuilds every tree (and with it every table) each
// epoch, so a missed refresh shows up there as a differential mismatch.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "routing/paths.hpp"
#include "topology/graph.hpp"

namespace kar::ctrlplane {

/// Outcome of one incremental update.
struct SptUpdateStats {
  /// Nodes whose distance the update had to reconsider (the affected
  /// subtree on a delete; the improved set on an insert).
  std::size_t dirty = 0;
  /// True when the update gave up and rebuilt the whole tree.
  bool fallback = false;
};

/// Nodes whose distance updates moved, by direction. A lone repair only
/// lowers distances and a lone failure only raises them; in a coalesced
/// epoch, whose topology already holds later events' link states, a
/// failure's re-settled subtree can also fall through a pending repair.
struct DistanceMoves {
  std::vector<topo::NodeId> raised;
  std::vector<topo::NodeId> lowered;

  void clear() {
    raised.clear();
    lowered.clear();
  }
};

class DynamicSpt {
 public:
  /// Builds the initial tree with a full Dijkstra over the topology's
  /// *current* link states. The topology must outlive the tree.
  DynamicSpt(const topo::Topology& topology, topo::NodeId destination,
             routing::PathMetric metric, std::size_t fallback_threshold);

  [[nodiscard]] topo::NodeId destination() const noexcept { return dst_; }
  [[nodiscard]] double distance(topo::NodeId node) const { return dist_[node]; }
  [[nodiscard]] const std::vector<double>& distances() const noexcept {
    return dist_;
  }

  /// Full Dijkstra from scratch (also the fallback path).
  void rebuild();

  /// Applies one link state transition. The topology must already reflect
  /// the new state (call after set_link_up). Nodes whose distance changed
  /// are appended to `moved` by direction (unordered, each duplicate-free
  /// per call, disjoint), and the next-hop table is refreshed.
  SptUpdateStats apply_link_event(topo::LinkId link, bool up,
                                  DistanceMoves& moved);

  /// Canonical next hop from `from` toward the destination (see file
  /// comment): a table read; kInvalidNode when unreachable and at the
  /// destination itself.
  [[nodiscard]] topo::NodeId canonical_next_hop(topo::NodeId from) const {
    return next_hop_[from];
  }

  /// Walks the canonical node path `from -> ... -> destination` (endpoints
  /// included) into `nodes`, replacing its contents; false when unreachable
  /// (`nodes` then holds the partial walk). Allocates only to grow `nodes`.
  bool canonical_path(topo::NodeId from, std::vector<topo::NodeId>& nodes) const;

 private:
  [[nodiscard]] bool propagates(topo::NodeId node) const;
  /// The argmin of the file comment, computed from the adjacency.
  [[nodiscard]] topo::NodeId compute_next_hop(topo::NodeId from) const;
  /// Recomputes `node`'s table entry once per refresh pass (epoch-stamped).
  void refresh_next_hop(topo::NodeId node);
  SptUpdateStats handle_insert(topo::LinkId link, DistanceMoves& moved);
  SptUpdateStats handle_delete(topo::LinkId link, DistanceMoves& moved);
  SptUpdateStats fallback_rebuild(DistanceMoves& moved);

  const topo::Topology* topo_;
  topo::NodeId dst_;
  routing::PathMetric metric_;
  std::size_t threshold_;
  std::vector<double> dist_;
  /// Tree parent: the neighbor this node's settled distance came through
  /// (kInvalidNode at the root and unreachable nodes).
  std::vector<topo::NodeId> parent_;
  std::vector<topo::LinkId> parent_link_;
  /// Canonical next hop per node (kInvalidNode: unreachable / destination).
  std::vector<topo::NodeId> next_hop_;
  // Scratch, reused across updates (epoch-stamped membership tests).
  std::vector<std::uint32_t> mark_;
  std::vector<std::uint8_t> affected_flag_;
  std::uint32_t epoch_ = 0;
  std::vector<double> old_dist_;
  std::vector<topo::NodeId> touched_;  ///< Improved / affected node list.
  /// Parent chain being classified; then the nodes a delete lowered.
  std::vector<topo::NodeId> chain_;
  /// Dijkstra min-heap; always drained, so its storage carries over.
  std::priority_queue<std::pair<double, topo::NodeId>,
                      std::vector<std::pair<double, topo::NodeId>>,
                      std::greater<>>
      heap_;
};

}  // namespace kar::ctrlplane
