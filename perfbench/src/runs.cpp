// The three workloads: set-up, measured phase, checks, and the mapping of
// their results onto the end-to-end and per-layer metric sets.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "kard.hpp"
#include "layers.hpp"
#include "sim.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Full sizes; Options::smoke selects the tiny ones.
constexpr std::size_t kRoutes = 200000;
constexpr std::size_t kSmokeRoutes = 2000;
/// Daemon set-ups per untraced kard run; setup_s is their median, and each
/// daemon serves an equal share of the measured phase in turn.
constexpr std::size_t kKardSetups = 3;
/// Traffic and failure mixes (input seeds) per untraced sim-failover run:
/// the slowest slices depend on the mix, so the tails pool several.
constexpr std::size_t kSimInputs = 4;
/// Set-ups of all the inputs per untraced sim-failover run.
constexpr std::size_t kSimSetups = 8;
/// Query answers checked against the full-recompute engine.
constexpr std::size_t kCheckSamples = 500;
/// Length of the generated link sequence (replayed cyclically).
constexpr std::size_t kLinkSequence = 20000;
/// Link events of the direct control-plane replay, per workload.
constexpr std::size_t kReplayEventsChurn = 400;
constexpr std::size_t kReplayEventsOther = 200;
/// Size of the kard run behind a traced sim-failover run's kard layers.
constexpr std::size_t kSideRoutes = 20000;
constexpr double kSideServeSeconds = 0.5;
/// Simulated-horizon share of the sim run behind a traced kard run's
/// data-plane layers.
constexpr double kSideSimScale = 0.25;
constexpr double kSmokeSimScale = 0.05;
/// kard-churn's and sim-failover's tails. A 30 s kard-churn run at 200k
/// routes answers ~1100 link requests, so p98 is the highest percentile
/// with at least ten samples beyond it; kard-serve's windows hold ~90k
/// queries and ~22k mutations each, so it reports p99. sim-failover's
/// slowest slices are the seed's retransmission storms, whose per-hop cost
/// varies far more between seeds than the code's speed (p98 spread 43-47%
/// over ten seeds with one input per run), so its tail is p90.
constexpr double kChurnTailPercentile = 98;
constexpr double kSimTailPercentile = 90;
/// Where traced runs write their Chrome trace, relative to the checkout.
constexpr const char* kTraceDir = ".bench_out";

std::string fmt(double value, int digits = 3) {
  return kar::common::fmt_double(value, digits);
}

std::string count(std::size_t n) { return std::to_string(n); }

/// Per-layer self times of the bench spans, and the trace file.
void finish_trace(const Options& options, const Tracer& tracer,
                  double untraced_rate, double traced_rate, Layers& layers) {
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
    layers.span_self_ms[layer] = seconds * 1e3;
  }
  layers.trace_overhead_pct =
      untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate * 100
                        : 0.0;
  std::filesystem::create_directories(kTraceDir);
  // One file per workload, overwritten by its next traced run.
  const std::string path =
      std::string(kTraceDir) + "/trace-" + options.workload + ".json";
  tracer.write_chrome_trace(path, "kar_perfbench " + options.workload);
  Report::note("trace: " + std::to_string(tracer.spans()) + " spans, " +
               "written to " + path + "; overhead " +
               fmt(layers.trace_overhead_pct, 2) + "% of the headline rate");
}

/// One simulation of the data-plane side inputs, for the traced kard runs.
void side_sim_layers(const Options& options, Tracer& tracer, Layers& layers,
                     Report& report) {
  const SimInputs in = make_sim_inputs(
      options.seed, options.smoke ? kSmokeSimScale : kSideSimScale, &tracer);
  kar::sim::EventLoopProfile profile;
  const SimOutcome outcome = simulate(in, &profile, &tracer);
  report.attempted += outcome.flows;
  report.failed += outcome.flows - outcome.completed;
  fill_sim_layers(in, outcome, profile, 1, tracer, layers);
}

std::size_t routes_for(const Options& options) {
  return options.smoke ? kSmokeRoutes : kRoutes;
}

std::size_t samples_for(const Options& options) {
  return options.smoke ? kCheckSamples / 10 : kCheckSamples;
}

void check_errors(std::uint64_t errors, const std::string& first,
                  const std::string& what, Report& report) {
  report.check(errors == 0, what + ": " + std::to_string(errors) +
                                " error or unanswered responses, first: " +
                                first);
}

/// kard-serve's rate and latencies from its quietest window over every
/// daemon of the run: the request mix is stationary, so every window
/// repeats the same work and the host's slow phases (seconds long, from
/// neighbours sharing the machine) and a daemon's slower heap layout only
/// add time. Rate is the best window's; each percentile is the lowest that
/// percentile reads in any window.
void fill_from_best_window(const ServeResult& r, EndToEnd& e) {
  const double inf = std::numeric_limits<double>::infinity();
  e.op_p50_ms = e.op_tail_ms = e.write_p50_ms = e.write_tail_ms = inf;
  for (ServeWindow w : r.windows) {  // a copy: percentile() sorts
    if (w.query_s.empty() || w.mutation_s.empty()) continue;
    e.rate_per_s =
        std::max(e.rate_per_s, static_cast<double>(w.ops) / kServeWindowS);
    e.op_p50_ms = std::min(e.op_p50_ms, percentile(w.query_s, 50) * 1e3);
    e.op_tail_ms = std::min(e.op_tail_ms, percentile(w.query_s, 99) * 1e3);
    e.write_p50_ms =
        std::min(e.write_p50_ms, percentile(w.mutation_s, 50) * 1e3);
    e.write_tail_ms =
        std::min(e.write_tail_ms, percentile(w.mutation_s, 99) * 1e3);
  }
}

/// kard-churn's rate and latencies over the whole schedule rounds each
/// daemon of the run was sent, each request at its noise floor. Every round
/// fails and repairs each core link once, so whole rounds give every seed
/// and run length nearly the same mix of requests. A request's noise floor
/// is the lowest latency any request of its class (same link, same
/// transition, same other links down) saw on any of the daemons: requests
/// of a class do identical work on an equal store, so the host's slow
/// phases and a daemon's slower heap layout only add to the others. The
/// rate is requests per second at those latencies.
void fill_from_class_floor(const std::vector<ChurnResult>& parts,
                           double tail_percentile, EndToEnd& e) {
  std::map<std::string, double> floor;
  for (const ChurnResult& r : parts) {
    for (std::size_t i = 0; i < r.link_s.size(); ++i) {
      auto [it, fresh] = floor.emplace(r.event_class[i], r.link_s[i]);
      if (!fresh) it->second = std::min(it->second, r.link_s[i]);
    }
  }
  std::vector<double> floors;
  double total_s = 0.0;
  for (const ChurnResult& r : parts) {
    for (std::size_t i = r.rounds_begin; i < r.rounds_end; ++i) {
      const double s = floor[r.event_class[i]];
      floors.push_back(s * 1e3);
      total_s += s;
    }
  }
  e.rate_per_s = total_s > 0 ? static_cast<double>(floors.size()) / total_s : 0;
  e.op_p50_ms = e.write_p50_ms = percentile(floors, 50);
  e.op_tail_ms = e.write_tail_ms = percentile(floors, tail_percentile);
}

/// Appends one daemon's serve result to the run's.
void append(ServeResult& into, ServeResult&& part) {
  into.query_s.insert(into.query_s.end(), part.query_s.begin(),
                      part.query_s.end());
  into.mutation_s.insert(into.mutation_s.end(), part.mutation_s.begin(),
                         part.mutation_s.end());
  for (ServeWindow& w : part.windows) into.windows.push_back(std::move(w));
  into.ops += part.ops;
  into.errors += part.errors;
  if (into.first_error.empty()) into.first_error = part.first_error;
  into.wall_s += part.wall_s;
}

}  // namespace

// --- kard-serve ------------------------------------------------------------

void run_kard_serve(const Options& options, Report& report) {
  const KardInputs in = make_kard_inputs(
      options.seed, routes_for(options),
      options.trace ? kReplayEventsOther : 0);
  std::vector<double> setup_s;

  if (!options.trace) {
    // Every install grows the store for good (keys are never reused), so
    // the measured phase's memory grows with its request count; the peak
    // is read after the first set-up, where the store holds exactly the
    // preload.
    double setup_peak_rss_mb = 0.0;
    ServeResult r;
    for (std::size_t rep = 0; rep < kKardSetups; ++rep) {
      auto kard = start_kard(in, report, setup_s);
      if (rep == 0) setup_peak_rss_mb = peak_rss_mb();
      ServeClient client(*kard, in, options.seed);
      append(r, client.run(options.seconds / kKardSetups, nullptr));
      if (rep + 1 == kKardSetups) {
        check_sample_against_full(*kard, options.seed, samples_for(options),
                                  report);
      }
      kard->stop();
    }
    report.attempted = r.ops;
    report.failed = r.errors;
    check_errors(r.errors, r.first_error, "kard-serve", report);
    report.check(!r.windows.empty(), "kard-serve: no complete window measured");
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.peak_rss_mb = setup_peak_rss_mb;
    fill_from_best_window(r, e);
    Report::note("kard.req_per_s " +
                 fmt(static_cast<double>(r.ops) / r.wall_s, 0) + " 1/s (" +
                 count(r.ops) + " requests in " + fmt(r.wall_s) + " s)");
    Report::note("kard.query_p50_us " + fmt(percentile(r.query_s, 50) * 1e6) +
                 " us, kard.query_p99_us " +
                 fmt(percentile(r.query_s, 99) * 1e6) + " us (" +
                 count(r.query_s.size()) + " queries)");
    Report::note("kard.mutation_p50_ms " +
                 fmt(percentile(r.mutation_s, 50) * 1e3) +
                 " ms, kard.mutation_p99_ms " +
                 fmt(percentile(r.mutation_s, 99) * 1e3) + " ms (" +
                 count(r.mutation_s.size()) + " mutations)");
    Report::note("best of " + count(r.windows.size()) + " windows of " +
                 fmt(kServeWindowS, 1) + " s on " + count(kKardSetups) +
                 " daemons: " + fmt(e.rate_per_s, 0) +
                 " req/s, query p50 " + fmt(e.op_p50_ms * 1e3) + " us, p99 " +
                 fmt(e.op_tail_ms * 1e3) + " us, mutation p50 " +
                 fmt(e.write_p50_ms) + " ms, p99 " + fmt(e.write_tail_ms) +
                 " ms");
    Report::note("setup_s " + fmt(e.setup_s) + " s (median of " +
                 count(setup_s.size()) + " set-ups of " +
                 count(in.preload.size()) + " installs), peak_rss_mb " +
                 fmt(e.peak_rss_mb, 1) + " MB");
    report_end_to_end(e, report);
    return;
  }

  // Traced run: half the time untraced, half traced, on the same daemon.
  auto kard = start_kard(in, report, setup_s);
  ServeClient client(*kard, in, options.seed);
  Tracer tracer(true);
  const ServeResult plain = client.run(options.seconds / 2, nullptr);
  const DaemonCounters before = daemon_counters(*kard);
  const ServeResult traced = client.run(options.seconds / 2, &tracer);
  const DaemonCounters after = daemon_counters(*kard);
  check_sample_against_full(*kard, options.seed, samples_for(options), report);
  kard->stop();
  kard.reset();
  report.attempted += plain.ops + traced.ops;
  report.failed += plain.errors + traced.errors;
  check_errors(report.failed, plain.first_error + traced.first_error,
               "kard-serve", report);

  Layers layers;
  fill_daemon_layers(before, after, mean(traced.mutation_s),
                     traced.sample_lines, layers);
  side_sim_layers(options, tracer, layers, report);
  fill_ctrlplane_layers(in, kReplayEventsOther, layers.daemon_epoch_ops_mean,
                        options.seed, tracer, layers);
  finish_trace(options, tracer, static_cast<double>(plain.ops) / plain.wall_s,
               static_cast<double>(traced.ops) / traced.wall_s, layers);
  report_layers(layers, report);
}

// --- kard-churn ------------------------------------------------------------

void run_kard_churn(const Options& options, Report& report) {
  const KardInputs in = make_kard_inputs(
      options.seed, routes_for(options),
      options.smoke ? kReplayEventsChurn / 10 : kLinkSequence);
  std::vector<double> setup_s;

  if (!options.trace) {
    // A fresh daemon has every link up, as at the start of a schedule
    // round, so each daemon takes up the sequence at the first round start
    // after its predecessor's last request. The peak is one daemon's, read
    // before the next one reuses the heap its predecessor freed (which can
    // leave more resident).
    std::vector<ChurnResult> parts;
    double daemon_peak_rss_mb = 0.0;
    std::size_t cursor = 0;
    for (std::size_t rep = 0; rep < kKardSetups; ++rep) {
      auto kard = start_kard(in, report, setup_s);
      while (!in.round_start[cursor]) cursor = (cursor + 1) % in.links.size();
      parts.push_back(churn_loop(*kard, in, cursor,
                                 options.seconds / kKardSetups, nullptr));
      if (rep == 0) daemon_peak_rss_mb = peak_rss_mb();
      if (rep + 1 == kKardSetups) {
        check_sample_against_full(*kard, options.seed, samples_for(options),
                                  report);
      }
      kard->stop();
    }
    std::vector<double> link_s;
    std::set<std::string> classes;
    std::size_t round_requests = 0;
    double wall_s = 0.0;
    for (const ChurnResult& r : parts) {
      report.attempted += r.ops;
      report.failed += r.errors;
      check_errors(r.errors, r.first_error, "kard-churn", report);
      report.check(r.rounds_end > r.rounds_begin,
                   "kard-churn: a daemon saw no whole schedule round");
      link_s.insert(link_s.end(), r.link_s.begin(), r.link_s.end());
      classes.insert(r.event_class.begin(), r.event_class.end());
      round_requests += r.rounds_end - r.rounds_begin;
      wall_s += r.wall_s;
    }
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.peak_rss_mb = daemon_peak_rss_mb;
    fill_from_class_floor(parts, kChurnTailPercentile, e);
    Report::note("kard.link_p50_ms " + fmt(percentile(link_s, 50) * 1e3) +
                 " ms, kard.link_p99_ms " +
                 fmt(percentile(link_s, 99) * 1e3) + " ms (" +
                 count(link_s.size()) + " link requests, " +
                 fmt(static_cast<double>(link_s.size()) / wall_s, 1) +
                 " 1/s)");
    Report::note("over the " + count(round_requests) +
                 " requests of whole rounds on " + count(kKardSetups) +
                 " daemons, at the noise floor of " +
                 count(classes.size()) + " request classes: " +
                 fmt(e.rate_per_s, 1) + " 1/s, p50 " + fmt(e.op_p50_ms) +
                 " ms, p98 " + fmt(e.op_tail_ms) + " ms");
    Report::note("setup_s " + fmt(e.setup_s) + " s (median of " +
                 count(setup_s.size()) + " set-ups of " +
                 count(in.preload.size()) + " installs), peak_rss_mb " +
                 fmt(e.peak_rss_mb, 1) + " MB");
    report_end_to_end(e, report);
    return;
  }

  auto kard = start_kard(in, report, setup_s);
  std::size_t cursor = 0;
  Tracer tracer(true);
  const ChurnResult plain =
      churn_loop(*kard, in, cursor, options.seconds / 2, nullptr);
  const DaemonCounters before = daemon_counters(*kard);
  const ChurnResult traced =
      churn_loop(*kard, in, cursor, options.seconds / 2, &tracer);
  const DaemonCounters after = daemon_counters(*kard);
  check_sample_against_full(*kard, options.seed, samples_for(options), report);
  kard->stop();
  kard.reset();
  report.attempted += plain.ops + traced.ops;
  report.failed += plain.errors + traced.errors;
  check_errors(report.failed, plain.first_error + traced.first_error,
               "kard-churn", report);

  std::vector<std::string> lines;
  for (std::size_t i = 0; i < std::min<std::size_t>(in.links.size(), 4096);
       ++i) {
    lines.push_back(link_line(in, in.links[i]));
  }
  Layers layers;
  fill_daemon_layers(before, after, mean(traced.link_s), lines, layers);
  side_sim_layers(options, tracer, layers, report);
  fill_ctrlplane_layers(
      in, options.smoke ? kReplayEventsChurn / 50 : kReplayEventsChurn,
      layers.daemon_epoch_ops_mean, options.seed, tracer, layers);
  finish_trace(options, tracer, static_cast<double>(plain.ops) / plain.wall_s,
               static_cast<double>(traced.ops) / traced.wall_s, layers);
  report_layers(layers, report);
}

// --- sim-failover ----------------------------------------------------------

namespace {

/// Simulations of the inputs, one list per input, taken in turns until
/// `seconds` pass (each input at least `min_runs` times); every outcome of
/// an input must repeat the digest of its first.
using SimRuns = std::vector<SimOutcome>;

std::vector<SimRuns> simulate_for(const std::vector<SimInputs>& inputs,
                                  double seconds, std::size_t min_runs,
                                  kar::sim::EventLoopProfile* profile,
                                  Tracer* tracer, Report& report) {
  std::vector<SimRuns> runs(inputs.size());
  const Clock::time_point t0 = Clock::now();
  while (runs.front().size() < min_runs || seconds_since(t0) < seconds) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      runs[i].push_back(simulate(inputs[i], profile, tracer));
      if (runs[i].size() > 1) {
        report.check(runs[i].back().digest() == runs[i].front().digest(),
                     "sim-failover: input " + std::to_string(i) +
                         ", simulation " + std::to_string(runs[i].size()) +
                         " digest differs: " + runs[i].back().digest() +
                         " vs " + runs[i].front().digest());
      }
    }
  }
  return runs;
}

/// One input's simulations at their noise floor. Every simulation repeats
/// identical work, so each part of it (preparation, every slice, the
/// drain) takes its fastest time over the simulations: the host's slow
/// phases (seconds long, from neighbours sharing the machine) only ever
/// add time.
struct SimFloor {
  double wall_s = 0.0;         ///< Preparation + slices + drain.
  std::vector<double> slice_s;
};

SimFloor noise_floor(const SimRuns& runs) {
  const SimOutcome& first = runs.front();
  double prepare = first.prepare_s;
  double drain = first.drain_s;
  SimFloor f{0.0, first.slice_s};
  for (const SimOutcome& o : runs) {
    prepare = std::min(prepare, o.prepare_s);
    drain = std::min(drain, o.drain_s);
    for (std::size_t k = 0; k < f.slice_s.size(); ++k) {
      f.slice_s[k] = std::min(f.slice_s[k], o.slice_s[k]);
    }
  }
  f.wall_s = prepare + drain;
  for (const double s : f.slice_s) f.wall_s += s;
  return f;
}

/// Packet hops per wall second over all inputs, at their noise floors.
double best_rate(const std::vector<SimRuns>& runs) {
  double hops = 0.0;
  double wall = 0.0;
  for (const SimRuns& r : runs) {
    hops += static_cast<double>(r.front().counters.hops);
    wall += noise_floor(r).wall_s;
  }
  return hops / wall;
}

void account(const std::vector<SimRuns>& runs, Report& report) {
  for (const SimRuns& r : runs) {
    for (const SimOutcome& o : r) {
      report.attempted += o.flows;
      report.failed += o.flows - o.completed;
    }
  }
}

}  // namespace

void run_sim_failover(const Options& options, Report& report) {
  const double scale = options.smoke ? kSmokeSimScale : 1.0;
  // The run's traffic and failure mixes, one per input seed drawn from the
  // workload seed; a traced run simulates only the first.
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < (options.trace ? 1 : kSimInputs); ++i) {
    seeds.push_back(kar::common::derive_seed(options.seed, i));
  }
  std::vector<double> setup_s;
  std::vector<SimInputs> inputs(seeds.size());
  for (std::size_t rep = 0; rep < (options.trace ? 1 : kSimSetups); ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      inputs[i] = make_sim_inputs(seeds[i], scale);
    }
    setup_s.push_back(seconds_since(t0));
  }
  std::size_t routes = 0;
  std::size_t wide = 0;
  std::size_t faults = 0;
  for (const SimInputs& in : inputs) {
    routes += in.forward.size();
    faults += in.faults.events.size();
    for (const auto& r : in.forward) wide += r.route_id.fits_u64() ? 0 : 1;
  }
  Report::note("sim-failover: " + count(inputs.size()) + " inputs, " +
               count(routes) + " flows, " + count(faults) +
               " link fail/repair events, " + count(wide) + "/" +
               count(routes) +
               " protected data routes wider than 64 bits, horizon " +
               fmt(inputs.front().horizon_s) + " s simulated each");

  if (!options.trace) {
    const std::vector<SimRuns> runs =
        simulate_for(inputs, options.seconds, 2, nullptr, nullptr, report);
    account(runs, report);
    // Wall time per packet hop: per slice, its noise floor divided by the
    // slice's repeatable hop count; the percentiles pool the slices of
    // every input and weight each by its hops.
    std::vector<std::pair<double, double>> all;
    std::vector<std::pair<double, double>> failover;
    std::string digests;
    std::size_t simulations = 0;
    for (const SimRuns& r : runs) {
      const SimOutcome& first = r.front();
      const SimFloor floor = noise_floor(r);
      for (std::size_t k = 0; k < floor.slice_s.size(); ++k) {
        if (first.slice_hops[k] == 0) continue;
        const auto hops = static_cast<double>(first.slice_hops[k]);
        all.emplace_back(floor.slice_s[k] * 1e3 / hops, hops);
        if (first.slice_failover[k]) failover.push_back(all.back());
      }
      digests += (digests.empty() ? "" : " ; ") + first.digest();
      simulations += r.size();
    }
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.rate_per_s = best_rate(runs);
    e.op_p50_ms = weighted_percentile(all, 50);
    e.op_tail_ms = weighted_percentile(all, kSimTailPercentile);
    e.write_p50_ms = weighted_percentile(failover, 50);
    e.write_tail_ms = weighted_percentile(failover, kSimTailPercentile);
    e.peak_rss_mb = peak_rss_mb();
    Report::note("digest: " + digests + " (identical over " +
                 count(simulations) + " simulations)");
    double hops = 0.0;
    double mbit = 0.0;
    for (const SimRuns& r : runs) {
      hops += static_cast<double>(r.front().counters.hops);
      mbit += static_cast<double>(r.front().delivered_bytes) * 8e-6;
    }
    const double wall_s = hops / e.rate_per_s;
    Report::note("sim.goodput_mbit_per_wall_s " + fmt(mbit / wall_s, 2) +
                 ", " + fmt(e.rate_per_s, 0) +
                 " packet hops per wall second (noise floor of " +
                 count(simulations) + " simulations)");
    Report::note("wall ns per packet hop p50 " + fmt(e.op_p50_ms * 1e6, 1) +
                 ", p90 " + fmt(e.op_tail_ms * 1e6, 1) + " (" +
                 count(all.size()) + " slices); in failover slices p50 " +
                 fmt(e.write_p50_ms * 1e6, 1) + ", p90 " +
                 fmt(e.write_tail_ms * 1e6, 1) + " (" +
                 count(failover.size()) + " slices)");
    Report::note("setup_s " + fmt(e.setup_s, 4) + " s (median of " +
                 count(setup_s.size()) + " set-ups of " +
                 count(inputs.size()) + " inputs), peak_rss_mb " +
                 fmt(e.peak_rss_mb, 1) + " MB");
    report_end_to_end(e, report);
    return;
  }

  Tracer tracer(true);
  inputs.front() = make_sim_inputs(seeds.front(), scale, &tracer);
  const SimInputs& in = inputs.front();
  const std::vector<SimRuns> plain =
      simulate_for(inputs, options.seconds / 2, 1, nullptr, nullptr, report);
  kar::sim::EventLoopProfile profile;
  const std::vector<SimRuns> traced =
      simulate_for(inputs, options.seconds / 2, 1, &profile, &tracer, report);
  report.check(plain.front().front().digest() ==
                   traced.front().front().digest(),
               "sim-failover: traced simulation digest differs");
  account(plain, report);
  account(traced, report);

  Layers layers;
  fill_sim_layers(in, traced.front().front(), profile, traced.front().size(),
                  tracer, layers);

  // The kard layers, from a small kard run beside the simulation.
  const KardInputs kin = make_kard_inputs(
      options.seed, options.smoke ? kSmokeRoutes : kSideRoutes,
      kReplayEventsOther);
  std::vector<double> kard_setup;
  {
    auto kard = start_kard(kin, report, kard_setup);
    ServeClient client(*kard, kin, options.seed);
    const DaemonCounters before = daemon_counters(*kard);
    const ServeResult r = client.run(kSideServeSeconds, &tracer);
    const DaemonCounters after = daemon_counters(*kard);
    kard->stop();
    check_errors(r.errors, r.first_error, "side kard run", report);
    fill_daemon_layers(before, after, mean(r.mutation_s), r.sample_lines,
                       layers);
  }
  fill_ctrlplane_layers(kin, kReplayEventsOther, layers.daemon_epoch_ops_mean,
                        options.seed, tracer, layers);
  layers.topo_build_ms = in.topo_build_ms;
  finish_trace(options, tracer, best_rate(plain), best_rate(traced),
               layers);
  report_layers(layers, report);
}

}  // namespace perfbench
