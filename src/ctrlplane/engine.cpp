#include "ctrlplane/engine.hpp"

#include <algorithm>
#include <functional>

#include "obs/profile.hpp"
#include "runner/fork_join.hpp"

namespace kar::ctrlplane {

namespace {

template <typename T>
void sort_unique(std::vector<T>& list) {
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
}

}  // namespace

ReconvergenceEngine::ReconvergenceEngine(const topo::Topology& topology,
                                         RouteStore& store, EngineConfig config)
    : topo_(&topology),
      store_(&store),
      config_(config),
      controller_(topology) {}

std::size_t ReconvergenceEngine::threshold() const {
  if (config_.spt_fallback_threshold != 0) return config_.spt_fallback_threshold;
  return std::max<std::size_t>(topo_->node_count() / 4, 8);
}

std::size_t ReconvergenceEngine::shard_count() const {
  if (config_.shards == 0) return runner::ThreadPool::default_threads();
  return std::max<std::size_t>(config_.shards, 1);
}

ReconvergenceEngine::DstState& ReconvergenceEngine::dst_state(
    topo::NodeId dst) {
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) {
    it = dsts_.emplace(dst, std::make_unique<DstState>()).first;
  }
  DstState& state = *it->second;
  if (!state.spt) {
    state.spt =
        std::make_unique<DynamicSpt>(*topo_, dst, config_.metric, threshold());
  }
  return state;
}

void ReconvergenceEngine::fork(std::size_t shards,
                               const std::function<void(std::size_t)>& body) {
  if (shards <= 1) {
    body(0);
    return;
  }
  // Shard 0 runs on the applying thread, so the pool backs shards - 1.
  if (!pool_ || pool_->size() < shards - 1) {
    pool_ = std::make_unique<runner::ThreadPool>(shards - 1);
  }
  runner::fork_join(*pool_, shards, body);
}

void ReconvergenceEngine::attach_metrics(obs::MetricsRegistry& registry,
                                         const obs::Labels& labels) {
  events_total_ = registry.counter("kar_ctrlplane_events_total",
                                   "Link state changes processed", labels);
  epochs_total_ = registry.counter("kar_ctrlplane_epochs_total",
                                   "Reconvergence epochs applied", labels);
  reencodes_total_ = registry.counter("kar_ctrlplane_reencodes_total",
                                      "Routes freshly encoded", labels);
  withdrawals_total_ = registry.counter("kar_ctrlplane_withdrawals_total",
                                        "Routes withdrawn (no usable path)",
                                        labels);
  fallbacks_total_ =
      registry.counter("kar_ctrlplane_spt_fallbacks_total",
                       "Dynamic-SPT full-rebuild fallbacks", labels);
  routes_gauge_ =
      registry.gauge("kar_ctrlplane_routes", "Routes in the store", labels);
  reconvergence_seconds_ = registry.histogram(
      "kar_ctrlplane_reconvergence_seconds",
      "Wall time per reconvergence epoch",
      {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0},
      labels);
  affected_routes_ = registry.histogram(
      "kar_ctrlplane_affected_routes", "Candidate routes examined per epoch",
      {1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000, 25000, 100000}, labels);
  updated_routes_ = registry.histogram(
      "kar_ctrlplane_updated_routes", "Routes changed per epoch",
      {1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000, 25000, 100000}, labels);
}

bool ReconvergenceEngine::extract_core(DstState& state, topo::NodeId src,
                                       std::vector<topo::NodeId>& core) {
  // A usable route needs src + at least one core switch + dst.
  if (!state.spt->canonical_path(src, core) || core.size() < 3) {
    core.clear();
    return false;
  }
  core.pop_back();
  core.erase(core.begin());
  return true;
}

routing::EncodedRoute ReconvergenceEngine::encode_fresh(
    DstState& state, topo::NodeId src, topo::NodeId dst,
    const std::vector<topo::NodeId>& core) {
  if (!config_.plan_protection) return controller_.encode_path(src, core, dst);
  if (config_.mode == EngineMode::kIncremental) {
    // Reached only on an encoding-memo miss, i.e. a new (src, core) pair:
    // with one host edge per switch a core path has one src, so a
    // protection memo beside the encoding memo would only hold duplicates.
    return controller_.encode_path(
        src, core, dst,
        routing::plan_driven_deflections(*topo_, core, dst, config_.planner));
  }
  auto it = state.protection.find(core);
  if (it == state.protection.end()) {
    it = state.protection
             .emplace(core, routing::plan_driven_deflections(
                                *topo_, core, dst, config_.planner))
             .first;
  }
  return controller_.encode_path(src, core, dst, it->second);
}

const routing::EncodedRoute& ReconvergenceEngine::lookup_encoding(
    DstState& state, topo::NodeId src, topo::NodeId dst,
    const std::vector<topo::NodeId>& core) {
  // Keyed src first, then core path, so a hit compares against the
  // caller's path in place instead of copying it into a lookup key.
  auto& by_core = state.encodings[src];
  auto it = by_core.find(core);
  if (it == by_core.end()) {
    it = by_core.emplace(core, encode_fresh(state, src, dst, core)).first;
  }
  return it->second;
}

RouteKey ReconvergenceEngine::install(topo::NodeId src, topo::NodeId dst,
                                      EpochResult& result) {
  const RouteKey key = store_->add(src, dst, version_);
  // A group's record is canonical after every epoch, so a new member
  // normally just joins it; should it differ from the SPT, the record is
  // rewritten and the group's earlier members change with it.
  const GroupId id = store_->member(key).group;
  EpochStats group_stats;
  reconverge_group(id, install_core_, result.updated_groups, group_stats);
  if (store_->group(id).live) {
    store_->set_installed(key);
    result.updated.push_back(key);
    ++result.stats.reencoded;
  }
  return key;
}

void ReconvergenceEngine::recompute_all(EpochResult& result) {
  for (const topo::NodeId dst : store_->destinations()) {
    dst_state(dst).spt->rebuild();
  }
  result.stats.candidates = store_->size();
  // Decide every route against the epoch-start table before writing any:
  // members share their group's record, so writing one member's change
  // first would hide it from the rest of its group. An empty core path
  // means the route went dead.
  std::vector<std::pair<RouteKey, std::vector<topo::NodeId>>> changes;
  for (RouteKey key = 0; key < store_->size(); ++key) {
    const StoredRoute entry = store_->get(key);
    std::vector<topo::NodeId> core;
    if (extract_core(dst_state(entry.dst), entry.src, core)
            ? !entry.live || core != entry.core_path
            : entry.live) {
      changes.emplace_back(key, std::move(core));
    }
  }
  for (const auto& [key, core] : changes) {
    const StoredRoute entry = store_->get(key);
    if (core.empty()) {
      store_->set_dead(entry.group, version_);
      ++result.stats.withdrawn;
    } else {
      store_->set_encoding(
          entry.group, core,
          encode_fresh(dst_state(entry.dst), entry.src, entry.dst, core),
          version_);
      ++result.stats.reencoded;
    }
    result.updated.push_back(key);
  }
}

void ReconvergenceEngine::reconverge_group(GroupId id,
                                           std::vector<topo::NodeId>& core,
                                           std::vector<GroupId>& updated,
                                           EpochStats& stats) {
  const RouteGroup& group = store_->group(id);
  DstState& state = dst_state(group.dst);
  if (!extract_core(state, group.src, core)) {
    if (group.live) {
      store_->set_dead(id, version_);
      updated.push_back(id);
      stats.withdrawn += group.members.size();
    }
    return;
  }
  if (group.live && core == group.core_path) return;  // canonical path held
  if (config_.mode == EngineMode::kIncremental) {
    store_->set_encoding(id, core,
                         lookup_encoding(state, group.src, group.dst, core),
                         version_);
  } else {
    store_->set_encoding(id, core,
                         encode_fresh(state, group.src, group.dst, core),
                         version_);
  }
  updated.push_back(id);
  stats.reencoded += group.members.size();
}

bool ReconvergenceEngine::preview(topo::NodeId src, topo::NodeId dst,
                                  routing::EncodedRoute& route_out,
                                  std::vector<topo::NodeId>& core_out) {
  store_->check_endpoints(src, dst);
  DstState& state = dst_state(dst);
  if (!extract_core(state, src, core_out)) return false;
  route_out = config_.mode == EngineMode::kIncremental
                  ? lookup_encoding(state, src, dst, core_out)
                  : encode_fresh(state, src, dst, core_out);
  return true;
}

void ReconvergenceEngine::warm_spts() {
  // Register every destination's state serially, then build the missing
  // SPTs — each an independent Dijkstra over the shared const topology —
  // across the shard pool. After a 1M-route snapshot restore this is the
  // dominant startup cost, and it parallelises embarrassingly.
  std::vector<std::pair<topo::NodeId, DstState*>> missing;
  for (const topo::NodeId dst : store_->destinations()) {
    auto it = dsts_.find(dst);
    if (it == dsts_.end()) {
      it = dsts_.emplace(dst, std::make_unique<DstState>()).first;
    }
    if (!it->second->spt) missing.emplace_back(dst, it->second.get());
  }
  if (missing.empty()) return;
  const std::size_t shards = std::min(shard_count(), missing.size());
  fork(shards, [&](std::size_t shard) {
    for (std::size_t i = shard; i < missing.size(); i += shards) {
      const auto& [dst, state] = missing[i];
      state->spt = std::make_unique<DynamicSpt>(*topo_, dst, config_.metric,
                                                threshold());
    }
  });
}

RouteKey ReconvergenceEngine::add_route(topo::NodeId src, topo::NodeId dst) {
  EpochResult scratch;
  const RouteKey key = install(src, dst, scratch);
  routes_gauge_.set(static_cast<double>(store_->size()));
  return key;
}

EpochResult ReconvergenceEngine::apply(const std::vector<LinkChange>& events) {
  return apply(events, {}, {}, nullptr);
}

EpochResult ReconvergenceEngine::apply(
    const std::vector<LinkChange>& events,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& installs,
    const std::vector<RouteKey>& withdraws,
    std::vector<RouteKey>* installed_keys) {
  EpochResult result;
  {
    obs::SpanTimer timer(&result.stats.wall_s, trace_, "ctrlplane.apply");
    ++version_;
    result.version = version_;
    result.stats.events = events.size();

    if (config_.mode == EngineMode::kFullRecompute) {
      recompute_all(result);
    } else if (!events.empty()) {
      const std::size_t dsts = store_->destinations().size();
      const std::size_t shards =
          std::max<std::size_t>(1, std::min(shard_count(), dsts));
      // Serial preamble: every destination gets its state (SPT + memos)
      // before the fork — forked code looks states up but never creates
      // them, so the map is frozen while workers read it.
      for (const topo::NodeId dst : store_->destinations()) (void)dst_state(dst);
      if (shard_scratch_.size() < shards) shard_scratch_.resize(shards);
      candidate_epoch_.resize(store_->group_count(), 0);
      fork(shards, [&](std::size_t shard) {
        reconverge_shard(shard, shards, events);
      });
      // Merge in shard order (the updated list is canonicalised below).
      for (std::size_t shard = 0; shard < shards; ++shard) {
        const ShardScratch& sc = shard_scratch_[shard];
        result.updated_groups.insert(result.updated_groups.end(),
                                     sc.updated.begin(), sc.updated.end());
        result.stats.candidates += sc.stats.candidates;
        result.stats.reencoded += sc.stats.reencoded;
        result.stats.withdrawn += sc.stats.withdrawn;
        result.stats.spt_dirty += sc.stats.spt_dirty;
        result.stats.spt_fallbacks += sc.stats.spt_fallbacks;
      }
    }

    // Admissions converge against the post-event SPTs, under this epoch's
    // version; withdrawals last, so a key installed above can be
    // tombstoned in the same epoch.
    for (const auto& [src, dst] : installs) {
      const RouteKey key = install(src, dst, result);
      if (installed_keys != nullptr) installed_keys->push_back(key);
      ++result.stats.installed;
    }
    for (const RouteKey key : withdraws) {
      store_->set_withdrawn(key, version_);
      result.updated.push_back(key);
      ++result.stats.tombstoned;
    }
    sort_unique(result.updated_groups);
    sort_unique(result.updated);
  }

  totals_.events += result.stats.events;
  totals_.candidates += result.stats.candidates;
  totals_.reencoded += result.stats.reencoded;
  totals_.withdrawn += result.stats.withdrawn;
  totals_.installed += result.stats.installed;
  totals_.tombstoned += result.stats.tombstoned;
  totals_.spt_fallbacks += result.stats.spt_fallbacks;
  totals_.spt_dirty += result.stats.spt_dirty;
  totals_.wall_s += result.stats.wall_s;

  events_total_.inc(result.stats.events);
  epochs_total_.inc();
  reencodes_total_.inc(result.stats.reencoded);
  withdrawals_total_.inc(result.stats.withdrawn);
  fallbacks_total_.inc(result.stats.spt_fallbacks);
  routes_gauge_.set(static_cast<double>(store_->size()));
  reconvergence_seconds_.observe(result.stats.wall_s);
  affected_routes_.observe(static_cast<double>(result.stats.candidates));
  updated_routes_.observe(static_cast<double>(
      result.stats.reencoded + result.stats.withdrawn + result.stats.tombstoned));
  return result;
}

void ReconvergenceEngine::reconverge_shard(
    std::size_t shard, std::size_t shards,
    const std::vector<LinkChange>& events) {
  ShardScratch& sc = shard_scratch_[shard];
  sc.updated.clear();
  sc.stats = EpochStats{};
  const auto& dsts = store_->destinations();
  for (std::size_t i = shard; i < dsts.size(); i += shards) {
    const topo::NodeId dst = dsts[i];
    DynamicSpt& spt = *dsts_.find(dst)->second->spt;
    sc.changed.clear();
    for (const LinkChange& event : events) {
      const SptUpdateStats s =
          spt.apply_link_event(event.link, event.up, sc.changed);
      sc.stats.spt_dirty += s.dirty;
      if (s.fallback) ++sc.stats.spt_fallbacks;
    }
    // A group's path can only have changed if the table entry at one of
    // its path nodes did at some event of the epoch, and every such node
    // is listed: the epoch-start postings find each changed group (and,
    // in a multi-event epoch, possibly some whose entry changed back).
    sc.candidates.clear();
    for (const topo::NodeId node : sc.changed) {
      for (const GroupId id : store_->path_posting(dst, node)) {
        if (candidate_epoch_[id] == version_) continue;
        candidate_epoch_[id] = version_;
        sc.candidates.push_back(id);
      }
    }
    sc.stats.candidates += sc.candidates.size();
    for (const GroupId id : sc.candidates) {
      reconverge_group(id, sc.core, sc.updated, sc.stats);
    }
  }
}

std::vector<RouteKey> updated_keys(const RouteStore& store,
                                   const EpochResult& result) {
  std::vector<RouteKey> keys = result.updated;
  for (const GroupId id : result.updated_groups) {
    for (const RouteKey key : store.group(id).members) {
      // A member stamped in this epoch joined (or was withdrawn) after the
      // group changed; it is in `updated` if its entry changed at all.
      if (store.member(key).stamp < result.version) keys.push_back(key);
    }
  }
  sort_unique(keys);
  return keys;
}

std::vector<TraceHop> forwarding_trace(const topo::Topology& topology,
                                       const routing::EncodedRoute& route,
                                       std::size_t max_hops) {
  std::vector<TraceHop> trace;
  if (route.assignments.empty() || route.primary_count == 0) return trace;
  const topo::NodeId first = route.assignments.front().node;
  const auto uplink = topology.port_to(route.src_edge, first);
  if (!uplink.has_value()) return trace;
  trace.push_back(TraceHop{route.src_edge, *uplink});
  topo::NodeId cur = first;
  while (trace.size() <= max_hops &&
         topology.kind(cur) == topo::NodeKind::kCoreSwitch) {
    const topo::SwitchId id = topology.switch_id(cur);
    const auto port =
        static_cast<topo::PortIndex>(route.route_id.mod_u64(id));
    trace.push_back(TraceHop{cur, port});
    const auto next = topology.neighbor(cur, port);
    if (!next.has_value()) break;
    cur = *next;
  }
  return trace;
}

}  // namespace kar::ctrlplane
