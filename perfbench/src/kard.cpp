#include "kard.hpp"

#include <malloc.h>

#include <algorithm>
#include <deque>
#include <future>
#include <utility>

#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "daemon/protocol.hpp"
#include "faultgen/schedule.hpp"
#include "obs/metrics.hpp"
#include "topology/builders.hpp"
#include "topology/graph.hpp"

namespace perfbench {

namespace {

using kar::daemon::Kard;

// Independent random streams, all derived from the workload seed.
constexpr std::uint64_t kPreloadStream = 0x9e10ad;
constexpr std::uint64_t kServeStream = 0x5e27e;
constexpr std::uint64_t kChurnStream = 0xc4022;
constexpr std::uint64_t kCheckStream = 0xc4ec4;

/// Mutations in flight before the client waits for the oldest.
constexpr std::size_t kWindow = 256;
/// Operations after which a key installed by ServeClient may be drawn.
constexpr std::uint64_t kEligibleLag = 4096;
constexpr std::uint64_t kQueryPercent = 80;
constexpr std::uint64_t kInstallPercent = 10;

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// Value text of a top-level `"key":` field of a flat kard response: string
/// contents without the quotes, an array with its brackets, or the bare
/// literal. Empty when absent.
std::string field_text(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  if (begin >= json.size()) return {};
  std::size_t end = begin;
  if (json[begin] == '"') {
    end = json.find('"', begin + 1);
    return end == std::string::npos ? std::string()
                                    : json.substr(begin + 1, end - begin - 1);
  }
  if (json[begin] == '[') {
    end = json.find(']', begin);
    return end == std::string::npos ? std::string()
                                    : json.substr(begin, end - begin + 1);
  }
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(begin, end - begin);
}

std::string names_json(const kar::topo::Topology& topology,
                       const std::vector<kar::topo::NodeId>& nodes) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + topology.name(nodes[i]) + '"';
  }
  return out + "]";
}

std::string random_install(const KardInputs& in, kar::common::Rng& rng) {
  const std::size_t si = rng.below(in.edges.size());
  std::size_t di = rng.below(in.edges.size() - 1);
  if (di >= si) ++di;
  return "install " + in.edges[si] + ' ' + in.edges[di];
}

kar::daemon::KardConfig kard_config() {
  kar::daemon::KardConfig config;  // defaults: 2 ms timer, flush-max 4096,
  config.topology = "rnp28";       // one shard, compaction every 64 epochs
  config.host_edges = true;
  config.snapshot_path.clear();  // snapshots off
  config.snapshot_on_shutdown = false;
  return config;
}

/// Heap bytes in use (allocator view, MiB): unlike RSS it also sees growth
/// into pages an earlier phase freed.
double heap_mb() {
  return static_cast<double>(mallinfo2().uordblks) / (1024.0 * 1024.0);
}

double family_total(const kar::obs::MetricsSnapshot& snapshot,
                    const std::string& family, bool sum) {
  const auto it = snapshot.families.find(family);
  if (it == snapshot.families.end()) return 0.0;
  double total = 0.0;
  for (const auto& [labels, series] : it->second.series) {
    total += sum ? series.value : static_cast<double>(series.count);
  }
  return total;
}

}  // namespace

// --- inputs ----------------------------------------------------------------

KardInputs make_kard_inputs(std::uint64_t seed, std::size_t routes,
                            std::size_t link_events) {
  KardInputs in;
  in.scenario = kar::topo::make_rnp28();
  (void)kar::topo::attach_host_edges(in.scenario.topology);
  const kar::topo::Topology& topo = in.scenario.topology;
  for (const auto node : topo.nodes_of_kind(kar::topo::NodeKind::kEdgeNode)) {
    in.edges.push_back(topo.name(node));
  }
  kar::common::Rng rng(kar::common::derive_seed(seed, kPreloadStream));
  in.preload.reserve(routes);
  for (std::size_t i = 0; i < routes; ++i) {
    in.preload.push_back(random_install(in, rng));
  }

  // Core-link churn: seeded kRandomUpDown rounds over the core links,
  // filtered to real transitions, each round closed by repairing what it
  // left down, so the sequence replays from the all-up state any number of
  // times. Every round fails and repairs each core link once, and short
  // down times keep overlapping failures rare, so each event's cost is
  // mostly a function of its link and every seed replays nearly the same
  // mix of events.
  kar::faultgen::ScheduleConfig config;
  config.kind = kar::faultgen::ScheduleKind::kRandomUpDown;
  config.horizon_s = 1.0;
  config.per_link_failure_probability = 1.0;
  config.mean_downtime_s = 0.0005;
  kar::common::Rng churn_rng(kar::common::derive_seed(seed, kChurnStream));
  std::vector<bool> down(topo.link_count(), false);
  while (in.links.size() < link_events) {
    const auto schedule =
        kar::faultgen::generate_schedule(topo, config, churn_rng);
    const std::size_t round_begin = in.links.size();
    for (const auto& event : schedule.events) {
      if (event.fail == down[event.link]) continue;
      down[event.link] = event.fail;
      in.links.push_back({event.link, !event.fail});
    }
    for (kar::topo::LinkId link = 0; link < down.size(); ++link) {
      if (!down[link]) continue;
      down[link] = false;
      in.links.push_back({link, true});
    }
    in.round_start.resize(in.links.size(), false);
    if (round_begin < in.links.size()) in.round_start[round_begin] = true;
  }
  return in;
}

std::string link_line(const KardInputs& in, const LinkOp& op) {
  const kar::topo::Topology& topo = in.scenario.topology;
  const kar::topo::Link& link = topo.link(op.link);
  return std::string(op.up ? "link-up " : "link-down ") +
         topo.name(link.a.node) + ' ' + topo.name(link.b.node);
}

// --- set-up ----------------------------------------------------------------

std::unique_ptr<Kard> start_kard(const KardInputs& in, Report& report,
                                 std::vector<double>& setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto kard = std::make_unique<Kard>(kard_config());
  kard->start();
  std::deque<std::future<std::string>> window;
  std::size_t errors = 0;
  std::uint64_t key = 0;
  const auto reap_front = [&] {
    const std::string response = window.front().get();
    window.pop_front();
    // Keys are dense and assigned in admission order, so the i-th install
    // of the single client gets key i; ServeClient relies on it.
    if (!is_ok(response) ||
        field_text(response, "key") != std::to_string(key)) {
      ++errors;
    }
    ++key;
  };
  for (const std::string& line : in.preload) {
    if (window.size() >= kWindow) reap_front();
    window.push_back(kard->submit_line(line));
  }
  while (!window.empty()) reap_front();
  setup_s.push_back(seconds_since(t0));
  report.check(errors == 0, "preload: " + std::to_string(errors) +
                                " failed installs or unexpected keys");
  return kard;
}

// --- kard-serve ------------------------------------------------------------

ServeClient::ServeClient(Kard& kard, const KardInputs& in, std::uint64_t seed)
    : kard_(&kard),
      in_(&in),
      rng_(kar::common::derive_seed(seed, kServeStream)),
      base_key_(in.preload.size()),
      live_(in.preload.size()),
      next_install_key_(in.preload.size()) {
  // Live keys: the preloaded routes plus, after a fixed lag in operations,
  // every route this client installs. Which key a request names is thereby
  // a pure function of the seed and the operation index: the client forces
  // an install's answer before its key can be drawn.
  for (std::uint64_t k = 0; k < base_key_; ++k) live_[k] = k;
}

ServeResult ServeClient::run(double seconds, Tracer* tracer) {
  ServeResult r;
  struct Pending {
    std::future<std::string> future;
    Clock::time_point t0;
    std::uint64_t op;
    std::size_t slot;
    bool install;
  };
  std::deque<Pending> window;
  const Clock::time_point t0 = Clock::now();
  const auto slot_of = [&](Clock::time_point t) {
    const auto s = static_cast<std::size_t>(
        std::chrono::duration<double>(t - t0).count() / kServeWindowS);
    if (s >= r.windows.size()) r.windows.resize(s + 1);
    return s;
  };
  const auto fail = [&r](const std::string& response) {
    if (r.errors == 0) r.first_error = response;
    ++r.errors;
  };
  const auto reap = [&](bool block) {
    while (!window.empty()) {
      Pending& front = window.front();
      if (!block && front.future.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        return;
      }
      std::string response;
      {
        Span span(tracer, "daemon.wait", front.op);
        response = front.future.get();
      }
      r.mutation_s.push_back(seconds_since(front.t0));
      r.windows[front.slot].mutation_s.push_back(r.mutation_s.back());
      bool ok = is_ok(response);
      if (front.install) {
        ok = ok && field_text(response, "key") ==
                       std::to_string(base_key_ + installs_answered_);
        ++installs_answered_;
      }
      if (!ok) fail(response);
      window.pop_front();
      block = false;
    }
  };

  for (std::uint64_t issued = 0;; ++issued, ++op_) {
    if ((issued & 255) == 0 &&
        seconds_since(t0) >= seconds) {
      r.ops = issued;
      break;
    }
    reap(window.size() >= kWindow);
    while (!eligible_.empty() && eligible_.front().op + kEligibleLag <= op_) {
      while (installs_answered_ <= eligible_.front().key - base_key_) {
        reap(true);
      }
      live_.push_back(eligible_.front().key);
      eligible_.pop_front();
    }
    const std::uint64_t roll = rng_.below(100);
    if (roll < kQueryPercent) {
      Span request(tracer, "client.query", op_);
      const std::string line =
          "query " + std::to_string(live_[rng_.below(live_.size())]);
      if (r.sample_lines.size() < 4096) r.sample_lines.push_back(line);
      const Clock::time_point q0 = Clock::now();
      std::string response;
      {
        Span span(tracer, "daemon.submit_line", op_);
        response = kard_->submit_line(line).get();
      }
      r.query_s.push_back(seconds_since(q0));
      ServeWindow& w = r.windows[slot_of(q0)];
      w.query_s.push_back(r.query_s.back());
      ++w.ops;
      if (!is_ok(response)) fail(response);
      continue;
    }
    Span request(tracer, "client.mutation", op_);
    const bool install =
        roll < kQueryPercent + kInstallPercent || live_.size() <= 1;
    std::string line;
    if (install) {
      line = random_install(*in_, rng_);
      eligible_.push_back({op_, next_install_key_++});
    } else {
      const std::size_t pick = rng_.below(live_.size());
      line = "withdraw " + std::to_string(live_[pick]);
      live_[pick] = live_.back();
      live_.pop_back();
    }
    if (r.sample_lines.size() < 4096) r.sample_lines.push_back(line);
    const Clock::time_point m0 = Clock::now();
    const std::size_t slot = slot_of(m0);
    ++r.windows[slot].ops;
    Span span(tracer, "daemon.submit_line", op_);
    window.push_back({kard_->submit_line(line), m0, op_, slot, install});
  }
  while (!window.empty()) reap(true);
  r.wall_s = seconds_since(t0);
  if (!r.windows.empty()) r.windows.pop_back();
  return r;
}

// --- kard-churn ------------------------------------------------------------

ChurnResult churn_loop(Kard& kard, const KardInputs& in, std::size_t& cursor,
                       double seconds, Tracer* tracer) {
  ChurnResult r;
  // Links down before the cursor's position (the sequence starts all up).
  std::vector<kar::topo::LinkId> down;
  for (std::size_t i = 0; i < cursor; ++i) {
    const LinkOp& op = in.links[i];
    if (op.up) {
      down.erase(std::find(down.begin(), down.end(), op.link));
    } else {
      down.push_back(op.link);
    }
  }
  bool round_seen = false;
  const Clock::time_point t0 = Clock::now();
  for (; seconds_since(t0) < seconds; ++r.ops) {
    if (in.round_start[cursor]) {
      if (!round_seen) r.rounds_begin = r.ops;
      round_seen = true;
      r.rounds_end = r.ops;
    }
    const LinkOp& op = in.links[cursor];
    cursor = (cursor + 1) % in.links.size();
    std::string event_class =
        std::to_string(op.link) + (op.up ? " up after" : " down after");
    std::sort(down.begin(), down.end());
    for (const kar::topo::LinkId link : down) {
      if (link != op.link) event_class += ' ' + std::to_string(link);
    }
    r.event_class.push_back(std::move(event_class));
    if (op.up) {
      down.erase(std::find(down.begin(), down.end(), op.link));
    } else {
      down.push_back(op.link);
    }
    Span request(tracer, "client.link", r.ops);
    const std::string line = link_line(in, op);
    const Clock::time_point l0 = Clock::now();
    std::future<std::string> future;
    {
      Span span(tracer, "daemon.submit_line", r.ops);
      future = kard.submit_line(line);
    }
    std::string response;
    {
      Span span(tracer, "daemon.wait", r.ops);
      response = future.get();
    }
    r.link_s.push_back(seconds_since(l0));
    // Every request of the sequence is a real transition, so the daemon
    // must report the link changed and in the requested state.
    if (!is_ok(response) || field_text(response, "changed") != "true" ||
        field_text(response, "up") != (op.up ? "true" : "false")) {
      if (r.errors == 0) r.first_error = response;
      ++r.errors;
    }
  }
  if (in.round_start[cursor]) r.rounds_end = r.ops;
  r.wall_s = seconds_since(t0);
  return r;
}

// --- correctness -----------------------------------------------------------

void check_sample_against_full(Kard& kard, std::uint64_t seed,
                               std::size_t samples, Report& report) {
  const std::string stats = kard.execute_line("stats");
  const std::uint64_t routes = std::stoull(field_text(stats, "routes"));
  // The oracle: a fresh full-recompute engine on a copy of the daemon's
  // current topology, link states included.
  const kar::topo::Topology topology = kard.topology();
  kar::ctrlplane::RouteStore store(topology);
  kar::ctrlplane::EngineConfig config;
  config.mode = kar::ctrlplane::EngineMode::kFullRecompute;
  kar::ctrlplane::ReconvergenceEngine engine(topology, store, config);

  kar::common::Rng rng(kar::common::derive_seed(seed, kCheckStream));
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < samples && routes > 0; ++i) {
    const std::uint64_t key = rng.below(routes);
    const std::string answer =
        kard.execute_line("query " + std::to_string(key));
    std::string expected = "unanswerable";
    if (is_ok(answer)) {
      const auto src = topology.find(field_text(answer, "src"));
      const auto dst = topology.find(field_text(answer, "dst"));
      if (src && dst) {
        const auto& route = store.get(engine.add_route(*src, *dst));
        expected = route.live ? route.route.route_id.to_string() + ' ' +
                                    names_json(topology, route.core_path)
                              : "dead";
      }
    }
    const std::string got = field_text(answer, "live") == "true"
                                ? field_text(answer, "route_id") + ' ' +
                                      field_text(answer, "path")
                                : "dead";
    if (got != expected) {
      if (mismatches == 0) first = "key " + std::to_string(key) + ": " + answer;
      ++mismatches;
    }
  }
  Report::note("check: " + std::to_string(samples) +
               " query answers vs a fresh full-recompute engine, " +
               std::to_string(mismatches) + " mismatches");
  report.check(mismatches == 0,
               "query answers differ from the full-recompute engine (" +
                   std::to_string(mismatches) + "), first: " + first);
}

// --- per-layer -------------------------------------------------------------

DaemonCounters daemon_counters(Kard& kard) {
  const auto snapshot = kard.registry().snapshot();
  DaemonCounters c;
  c.epochs = family_total(snapshot, "kar_daemon_epochs_total", false);
  c.epoch_ops_sum = family_total(snapshot, "kar_daemon_epoch_ops", true);
  c.epoch_ops_count = family_total(snapshot, "kar_daemon_epoch_ops", false);
  c.epoch_s_sum = family_total(snapshot, "kar_daemon_epoch_seconds", true);
  c.epoch_s_count = family_total(snapshot, "kar_daemon_epoch_seconds", false);
  c.compactions = family_total(snapshot, "kar_daemon_compactions_total", false);
  return c;
}

void fill_daemon_layers(const DaemonCounters& before,
                        const DaemonCounters& after, double mean_request_s,
                        const std::vector<std::string>& lines,
                        Layers& layers) {
  const double ops_count = after.epoch_ops_count - before.epoch_ops_count;
  const double s_count = after.epoch_s_count - before.epoch_s_count;
  layers.daemon_epochs = after.epochs - before.epochs;
  layers.daemon_epoch_ops_mean =
      ops_count > 0 ? (after.epoch_ops_sum - before.epoch_ops_sum) / ops_count
                    : 0.0;
  const double epoch_s =
      s_count > 0 ? (after.epoch_s_sum - before.epoch_s_sum) / s_count : 0.0;
  layers.daemon_epoch_ms_mean = epoch_s * 1e3;
  layers.daemon_admission_wait_ms = (mean_request_s - epoch_s) * 1e3;
  layers.daemon_compactions = after.compactions - before.compactions;

  // parse_request over the run's own request lines, best of five passes.
  double best = 1e300;
  std::size_t parsed = 0;
  for (int pass = 0; pass < 5 && !lines.empty(); ++pass) {
    const std::size_t rounds = std::max<std::size_t>(1, 200000 / lines.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t round = 0; round < rounds; ++round) {
      for (const std::string& line : lines) {
        const auto request = kar::daemon::parse_request(line);
        keep(request);
      }
    }
    best = std::min(best, seconds_since(t0));
    parsed = rounds * lines.size();
  }
  layers.daemon_parse_ns =
      parsed > 0 ? best * 1e9 / static_cast<double>(parsed) : 0.0;
}

void fill_ctrlplane_layers(const KardInputs& in, std::size_t link_events,
                           double install_batch, std::uint64_t seed,
                           Tracer& tracer, Layers& layers) {
  const Clock::time_point b0 = Clock::now();
  kar::topo::Scenario scenario = kar::topo::make_rnp28();
  (void)kar::topo::attach_host_edges(scenario.topology);
  layers.topo_build_ms = seconds_since(b0) * 1e3;

  kar::topo::Topology& topo = scenario.topology;
  kar::ctrlplane::RouteStore store(topo);
  kar::ctrlplane::ReconvergenceEngine engine(topo, store);
  std::vector<std::pair<kar::topo::NodeId, kar::topo::NodeId>> pairs;
  pairs.reserve(in.preload.size());
  for (const std::string& line : in.preload) {
    const auto request = kar::daemon::parse_request(line);
    pairs.emplace_back(topo.at(request.request.a), topo.at(request.request.b));
  }
  const double heap0 = heap_mb();
  const Clock::time_point p0 = Clock::now();
  {
    Span span(&tracer, "ctrlplane.add_route");
    for (const auto& [src, dst] : pairs) (void)engine.add_route(src, dst);
  }
  layers.ctrl_add_route_us =
      seconds_since(p0) * 1e6 /
      static_cast<double>(std::max<std::size_t>(pairs.size(), 1));
  layers.ctrl_store_mb = heap_mb() - heap0;

  std::vector<double> apply_ms;
  double candidates = 0.0;
  double reencoded = 0.0;
  double dirty = 0.0;
  double fallbacks = 0.0;
  const std::size_t events = std::min(link_events, in.links.size());
  for (std::size_t i = 0; i < events; ++i) {
    const LinkOp& op = in.links[i];
    topo.set_link_up(op.link, op.up);
    const Clock::time_point a0 = Clock::now();
    kar::ctrlplane::EpochResult result;
    {
      Span span(&tracer, "ctrlplane.apply", i);
      result = engine.apply({{op.link, op.up}});
    }
    apply_ms.push_back(seconds_since(a0) * 1e3);
    candidates += static_cast<double>(result.stats.candidates);
    reencoded += static_cast<double>(result.stats.reencoded);
    dirty += static_cast<double>(result.stats.spt_dirty);
    fallbacks += static_cast<double>(result.stats.spt_fallbacks);
  }
  const double n = static_cast<double>(std::max<std::size_t>(events, 1));
  layers.ctrl_candidates_per_event = candidates / n;
  layers.ctrl_reencoded_per_event = reencoded / n;
  layers.ctrl_spt_dirty_per_event = dirty / n;
  layers.ctrl_spt_fallbacks = fallbacks;
  layers.ctrl_apply_link_ms_p50 = percentile(apply_ms, 50);
  layers.ctrl_apply_link_ms_p99 = percentile(apply_ms, 99);

  // Install epochs of the size the daemon formed, on the replayed store.
  const auto batch = static_cast<std::size_t>(std::max(1.0, install_batch));
  kar::common::Rng rng(kar::common::derive_seed(seed, kServeStream ^ 1));
  std::vector<double> install_ms;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::pair<kar::topo::NodeId, kar::topo::NodeId>> installs;
    for (std::size_t i = 0; i < batch; ++i) {
      installs.push_back(pairs[rng.below(pairs.size())]);
    }
    const Clock::time_point i0 = Clock::now();
    {
      Span span(&tracer, "ctrlplane.apply_install");
      (void)engine.apply({}, installs, {});
    }
    install_ms.push_back(seconds_since(i0) * 1e3);
  }
  layers.ctrl_apply_install_ms = median(install_ms);
}

}  // namespace perfbench
