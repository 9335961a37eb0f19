// The reconvergence engine: the layer between the static routing::Controller
// and sim::Network that keeps a RouteStore consistent with a changing
// topology.
//
// Incremental mode (the point of the subsystem): on an event epoch it
//   1. advances every per-destination DynamicSpt through the epoch's link
//      changes, collecting the nodes whose canonical next hop changed;
//   2. takes as candidates the groups to that destination whose path
//      ({src} ∪ core path) crosses one of those nodes — the store's path
//      index. A group's path is the walk of its destination's next-hop
//      table from its source, so it changes only if an entry on the walk
//      does: on a single-event epoch the candidates are exactly the groups
//      that change (docs/ctrlplane.md walks the exactness argument);
//   3. re-extracts each candidate group's canonical path from its SPT's
//      next-hop table into the shard's scratch — the store interns one
//      record per (src, dst) endpoint group, since routes sharing
//      endpoints share paths and encodings — and only when
//      the path actually differs re-encodes (primary + driven-deflection
//      protection, memoised per (src, core path) on the static topology)
//      and writes the group record once with the new epoch version, which
//      every member then reports (route_store.hpp's version rule).
// Every route outside the candidate set provably keeps its canonical path,
// so skipping it is safe.
//
// Full-recompute mode is the differential oracle: rebuild every SPT, walk
// every route, decide and encode each one on its own. Identical outputs are
// enforced by tests/test_ctrlplane_differential.cpp.
//
// Protection is planned on the *intended* topology (the planner ignores
// failures, mirroring the paper's controller), so a route's protection set
// is a pure function of (destination, primary core path) and its encoding
// of (src, destination, core path). Incremental mode memoises whole
// encodings, full-recompute mode protection sets; neither memo is ever
// invalidated. It is also why neither mode indexes the links an encoding
// references: a failed protection edge changes no group's (live, core
// path), so it changes no encoding.
//
// Sharded incremental mode (EngineConfig::shards > 1): every per-destination
// structure — the DynamicSpt, the protection and encoding memos, the store's
// slab of groups and path postings — is owned by exactly one shard
// (destination index mod shard count), so an epoch is one fork across the
// runner's ThreadPool with no locks: each shard advances, collects and
// reconverges its own destinations. Every decision is a pure function of the
// quiescent post-advance SPT and epoch-start store state, groups are
// disjoint across shards, and the one cross-shard merge (the updated list) is
// sorted — so the epoch result is bit-identical for every shard count, which
// tests/test_ctrlplane_differential.cpp enforces at 1, 4, and hardware width.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ctrlplane/engine_mode.hpp"
#include "ctrlplane/route_store.hpp"
#include "ctrlplane/spt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/controller.hpp"
#include "routing/protection.hpp"
#include "runner/thread_pool.hpp"
#include "topology/graph.hpp"

namespace kar::ctrlplane {

/// One link state transition inside an event epoch.
struct LinkChange {
  topo::LinkId link = topo::kInvalidLink;
  bool up = false;
};

/// Engine knobs.
struct EngineConfig {
  EngineMode mode = EngineMode::kIncremental;
  routing::PathMetric metric = routing::PathMetric::kHopCount;
  /// Plan driven-deflection protection for every primary path (memoised);
  /// false encodes bare primary paths.
  bool plan_protection = true;
  routing::PlannerOptions planner;
  /// Affected-subtree size beyond which a DynamicSpt delete falls back to
  /// a full Dijkstra rebuild. 0 = auto (node_count / 4, at least 8).
  std::size_t spt_fallback_threshold = 0;
  /// Reconvergence shards incremental epochs fork across (destinations are
  /// distributed round-robin). 1 = serial, no pool spawned; 0 = one shard
  /// per hardware thread. Results are bit-identical at every width (see
  /// file comment), so this is purely a throughput knob.
  std::size_t shards = 1;
};

/// Per-epoch accounting.
struct EpochStats {
  std::size_t events = 0;        ///< Link changes in the epoch.
  /// Candidates examined this epoch: endpoint *groups* whose epoch-start
  /// path crosses a changed next hop in incremental mode (exactly the
  /// changed groups when the epoch holds one event), individual routes in
  /// full-recompute mode.
  std::size_t candidates = 0;
  std::size_t reencoded = 0;     ///< Routes freshly encoded.
  std::size_t withdrawn = 0;     ///< Routes that went dead.
  std::size_t installed = 0;     ///< Routes admitted this epoch.
  std::size_t tombstoned = 0;    ///< Routes withdrawn by request (hidden).
  std::size_t spt_fallbacks = 0; ///< Dynamic-SPT full-rebuild escapes.
  std::size_t spt_dirty = 0;     ///< Sum of per-SPT dirty node counts.
  double wall_s = 0.0;
};

/// Outcome of one apply(): the new table version and what changed.
struct EpochResult {
  std::uint64_t version = 0;
  /// Groups whose state changed this epoch (re-encoded or withdrawn),
  /// ascending; unchanged candidates are not listed. Every member that
  /// joined before the change now reports `version`.
  std::vector<GroupId> updated_groups;
  /// Keys changed one by one this epoch, ascending: admissions installed
  /// live, tombstones, and in full-recompute mode every changed route.
  std::vector<RouteKey> updated;
  EpochStats stats;
};

/// Every key whose table entry changed in `result`, ascending: `updated`
/// plus the members of `updated_groups` that joined before the change.
/// Reads member stamps, so call it before the store's next epoch.
[[nodiscard]] std::vector<RouteKey> updated_keys(const RouteStore& store,
                                                 const EpochResult& result);

class ReconvergenceEngine {
 public:
  /// Both references must outlive the engine; the store must be driven
  /// exclusively through this engine.
  ReconvergenceEngine(const topo::Topology& topology, RouteStore& store,
                      EngineConfig config = {});

  [[nodiscard]] EngineMode mode() const noexcept { return config_.mode; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const RouteStore& store() const noexcept { return *store_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Registers kar_ctrlplane_* metric families on `registry` and binds the
  /// engine's handles to them (reconvergence-latency histogram, affected /
  /// updated per-epoch histograms, event/re-encode/fallback counters,
  /// stored-route gauge).
  void attach_metrics(obs::MetricsRegistry& registry,
                      const obs::Labels& labels = {});

  /// Records a span per apply() into `recorder` (nullptr detaches).
  void set_trace(obs::TraceRecorder* recorder) noexcept { trace_ = recorder; }

  /// Adds a route for (src, dst) and converges it against the current
  /// topology state. Throws std::invalid_argument when the endpoints are
  /// not edge nodes.
  RouteKey add_route(topo::NodeId src, topo::NodeId dst);

  /// Computes — without installing — the canonical encoding for (src, dst)
  /// on the current topology state (the daemon's `encode` verb). Returns
  /// false when no usable path exists. Shares the SPT and memo caches, so
  /// it must be serialized with apply() by the caller. Throws
  /// std::invalid_argument when the endpoints are not edge nodes.
  bool preview(topo::NodeId src, topo::NodeId dst,
               routing::EncodedRoute& route_out,
               std::vector<topo::NodeId>& core_out);

  /// Applies one event epoch (the link states in the topology must already
  /// reflect every change) and reconverges the store.
  EpochResult apply(const std::vector<LinkChange>& events);

  /// The admission-batching seam (docs/daemon.md): applies link events,
  /// route admissions and withdrawals as ONE atomically-versioned epoch —
  /// a coalesced burst costs a single version bump and a single SPT
  /// advance. Order within the epoch: events, then installs (each admitted
  /// route converges against the post-event SPTs; its key is appended to
  /// `installed_keys` when non-null), then withdrawals (tombstones — the
  /// keys must be valid and not yet withdrawn; installs from this same
  /// epoch may be withdrawn). Endpoints of every install must already be
  /// validated as edge nodes.
  EpochResult apply(
      const std::vector<LinkChange>& events,
      const std::vector<std::pair<topo::NodeId, topo::NodeId>>& installs,
      const std::vector<RouteKey>& withdraws,
      std::vector<RouteKey>* installed_keys = nullptr);

  /// Adopts the epoch version recorded in a snapshot so versions keep
  /// ascending across a restart. Call once, before any apply()/add_route(),
  /// on an engine whose store was just restored (docs/daemon.md).
  void restore_version(std::uint64_t version) noexcept { version_ = version; }

  /// Builds the per-destination SPT for every destination in the store
  /// against the topology's *current* link states. Required after a
  /// snapshot restore, before the first apply(): add_route() normally
  /// creates each SPT at install time, so restored destinations have none,
  /// and an SPT created lazily inside apply() would be born on the
  /// post-event topology and miss that epoch's distance deltas — dead
  /// routes would never revive on repair (docs/daemon.md).
  void warm_spts();

  /// Running totals across every epoch so far (wall time included).
  [[nodiscard]] const EpochStats& totals() const noexcept { return totals_; }

 private:
  /// Everything the engine keeps per destination, bundled so one shard
  /// owns it outright during a forked epoch. States are created only on
  /// the serial path (add_route, warm_spts, epoch preamble).
  struct DstState {
    std::unique_ptr<DynamicSpt> spt;
    /// Protection memo (full-recompute mode only): core path -> planned
    /// assignments (pure function of the intended topology; never
    /// invalidated).
    std::map<std::vector<topo::NodeId>,
             std::vector<std::pair<topo::NodeId, topo::NodeId>>>
        protection;
    /// Encoding memo (incremental mode only): src -> core path -> encoding.
    /// On the static topology structure an encoding is a pure function of
    /// (src, dst, core path), so churn pays the CRT solve only on first
    /// sight of each path — never invalidated.
    std::map<topo::NodeId,
             std::map<std::vector<topo::NodeId>, routing::EncodedRoute>>
        encodings;
  };

  /// Per-shard epoch working set; shard s owns destinations s, s+shards,
  /// ... in first-appearance order. Kept across epochs, so a warm epoch
  /// reuses every buffer's capacity instead of reallocating per candidate.
  struct ShardScratch {
    std::vector<topo::NodeId> changed;  ///< One destination's changed hops.
    std::vector<GroupId> candidates;    ///< One destination's candidates.
    std::vector<GroupId> updated;
    std::vector<topo::NodeId> core;     ///< Path scratch.
    EpochStats stats;
  };

  [[nodiscard]] std::size_t threshold() const;
  /// Resolved shard width for this epoch: config_.shards with 0 mapped to
  /// the hardware thread count, clamped to at least 1.
  [[nodiscard]] std::size_t shard_count() const;
  /// Finds or creates the destination's state (serial path only).
  DstState& dst_state(topo::NodeId dst);
  /// Canonical core path for (src, dst) from the destination's SPT, walked
  /// into `core` (replaced; cleared when false); false when no usable path
  /// exists (a route needs src + >= 1 switch + dst).
  bool extract_core(DstState& state, topo::NodeId src,
                    std::vector<topo::NodeId>& core);
  /// Encodes (src, dst, core) from scratch: primary path plus, when
  /// configured, the protection plan (memoised per core path in
  /// full-recompute mode; incremental mode memoises the whole encoding
  /// in lookup_encoding instead).
  routing::EncodedRoute encode_fresh(DstState& state, topo::NodeId src,
                                     topo::NodeId dst,
                                     const std::vector<topo::NodeId>& core);
  /// Finds or builds the persistent encoding-memo entry for
  /// (src, dst, core) — incremental mode's encode path.
  const routing::EncodedRoute& lookup_encoding(
      DstState& state, topo::NodeId src, topo::NodeId dst,
      const std::vector<topo::NodeId>& core);
  /// Admits one route at the current version (serial) and converges its
  /// group against the current SPT, recording the change in `result`.
  RouteKey install(topo::NodeId src, topo::NodeId dst, EpochResult& result);
  /// Full-recompute epoch body: decides every route on its own against the
  /// epoch-start table, then writes the changes.
  void recompute_all(EpochResult& result);
  /// Group reconvergence (incremental epochs and admissions): decide once
  /// per endpoint group and write its record once, whatever its member
  /// count. `core` is the caller's path scratch (one per shard). Touches
  /// only the group's destination's state, so shards may call it
  /// concurrently for groups of different destinations.
  void reconverge_group(GroupId id, std::vector<topo::NodeId>& core,
                        std::vector<GroupId>& updated, EpochStats& stats);
  /// Incremental epoch body for the destinations `shard` owns: advance
  /// each SPT through `events`, then reconverge the groups whose path
  /// crosses a changed next hop.
  void reconverge_shard(std::size_t shard, std::size_t shards,
                        const std::vector<LinkChange>& events);
  /// Runs body(0 .. shards-1): inline for one shard, else by fork_join on a
  /// lazily built pool of shards - 1 workers (shard 0 on the caller).
  void fork(std::size_t shards, const std::function<void(std::size_t)>& body);

  const topo::Topology* topo_;
  RouteStore* store_;
  EngineConfig config_;
  routing::Controller controller_;
  std::unordered_map<topo::NodeId, std::unique_ptr<DstState>> dsts_;
  std::unique_ptr<runner::ThreadPool> pool_;
  // Epoch scratch, reused across epochs (capacity kept).
  std::vector<ShardScratch> shard_scratch_;
  /// Per group: the last epoch that made it a candidate, so a group found
  /// at several changed nodes is examined once.
  std::vector<std::uint64_t> candidate_epoch_;
  std::vector<topo::NodeId> install_core_;  ///< install()'s path scratch.
  std::uint64_t version_ = 0;
  EpochStats totals_;
  obs::TraceRecorder* trace_ = nullptr;
  // Metric handles (inert until attach_metrics).
  obs::Counter events_total_;
  obs::Counter epochs_total_;
  obs::Counter reencodes_total_;
  obs::Counter withdrawals_total_;
  obs::Counter fallbacks_total_;
  obs::Gauge routes_gauge_;
  obs::Histogram reconvergence_seconds_;
  obs::Histogram affected_routes_;
  obs::Histogram updated_routes_;
};

/// One hop of a pure modulo walk over an encoded route.
struct TraceHop {
  topo::NodeId node = topo::kInvalidNode;
  topo::PortIndex port = 0;

  friend bool operator==(const TraceHop&, const TraceHop&) = default;
};

/// The control-plane semantics of an encoding: starting at the source
/// edge's uplink, apply route_id mod switch_id at every core switch,
/// ignoring link state and deflection. Stops on reaching an edge node, a
/// dead end, or after `max_hops`. Used by the differential suite to prove
/// two route tables forward identically.
[[nodiscard]] std::vector<TraceHop> forwarding_trace(
    const topo::Topology& topology, const routing::EncodedRoute& route,
    std::size_t max_hops = 64);

}  // namespace kar::ctrlplane
