// The kard side of the benchmark: seeded request inputs, daemon set-up,
// the kard-serve and kard-churn load loops, the cross-check against a
// fresh full-recompute engine, and the control-plane layer replay.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "topology/scenario.hpp"

namespace perfbench {

/// One core-link transition of the churn sequence.
struct LinkOp {
  kar::topo::LinkId link = kar::topo::kInvalidLink;
  bool up = false;
};

/// Everything the kard workloads send, generated from the seed before the
/// daemon sees any of it.
struct KardInputs {
  kar::topo::Scenario scenario;  ///< rnp28 with one host edge per switch.
  std::vector<std::string> edges;
  std::vector<std::string> preload;  ///< `install A B` lines.
  /// Real transitions only; replayable from the all-up state, cyclically.
  std::vector<LinkOp> links;
  /// True where a schedule round begins (every round is a whole set of
  /// transitions that starts and ends with every link up).
  std::vector<bool> round_start;
};

[[nodiscard]] KardInputs make_kard_inputs(std::uint64_t seed,
                                          std::size_t routes,
                                          std::size_t link_events);
[[nodiscard]] std::string link_line(const KardInputs& in, const LinkOp& op);

/// Builds and starts a daemon and preloads it through submit_line(); the
/// set-up's seconds are appended to `setup_s` and the daemon is returned
/// running.
[[nodiscard]] std::unique_ptr<kar::daemon::Kard> start_kard(
    const KardInputs& in, Report& report, std::vector<double>& setup_s);

/// Length of a ServeWindow, seconds.
inline constexpr double kServeWindowS = 0.5;

/// Requests issued within one window of a serve run, with their latencies
/// (a mutation belongs to the window it was submitted in).
struct ServeWindow {
  std::uint64_t ops = 0;
  std::vector<double> query_s;
  std::vector<double> mutation_s;
};

struct ServeResult {
  std::vector<double> query_s;
  std::vector<double> mutation_s;
  /// Consecutive windows of kServeWindowS; the last, partial one is
  /// dropped.
  std::vector<ServeWindow> windows;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::string first_error;
  double wall_s = 0.0;
  std::vector<std::string> sample_lines;  ///< For the parse replay.
};

/// The kard-serve client: a closed loop from one thread issuing 80%
/// synchronous queries of random live keys, 10% installs of random edge
/// pairs and 10% withdrawals of live keys, the mutations pipelined through
/// a bounded window of futures. Its state (random stream, live keys)
/// carries across run() calls.
class ServeClient {
 public:
  ServeClient(kar::daemon::Kard& kard, const KardInputs& in,
              std::uint64_t seed);

  /// Runs until `seconds` pass, then waits every outstanding mutation out.
  [[nodiscard]] ServeResult run(double seconds, Tracer* tracer);

 private:
  struct Eligible {
    std::uint64_t op;
    std::uint64_t key;
  };

  kar::daemon::Kard* kard_;
  const KardInputs* in_;
  kar::common::Rng rng_;
  std::uint64_t base_key_;
  std::vector<std::uint64_t> live_;
  std::deque<Eligible> eligible_;
  std::uint64_t next_install_key_;
  std::uint64_t installs_answered_ = 0;
  std::uint64_t op_ = 0;
};

struct ChurnResult {
  std::vector<double> link_s;
  /// Per request: the link, the requested state and the links already down
  /// when it was sent. Requests of one class do identical work.
  std::vector<std::string> event_class;
  /// The requests of the whole schedule rounds the run sent, [begin, end).
  std::size_t rounds_begin = 0;
  std::size_t rounds_end = 0;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::string first_error;
  double wall_s = 0.0;
};

/// Sends the link sequence with exactly one request outstanding, from
/// where `cursor` points (cycling; the sequence starts and ends with every
/// link up), until `seconds` pass.
[[nodiscard]] ChurnResult churn_loop(kar::daemon::Kard& kard,
                                     const KardInputs& in, std::size_t& cursor,
                                     double seconds, Tracer* tracer);

/// Queries a seeded sample of keys and checks each answer against a fresh
/// EngineMode::kFull engine built on the daemon's current link state.
void check_sample_against_full(kar::daemon::Kard& kard, std::uint64_t seed,
                               std::size_t samples, Report& report);

/// Daemon registry counters, read before and after a measured phase.
struct DaemonCounters {
  double epochs = 0.0;
  double epoch_ops_sum = 0.0;
  double epoch_ops_count = 0.0;
  double epoch_s_sum = 0.0;
  double epoch_s_count = 0.0;
  double compactions = 0.0;
};
[[nodiscard]] DaemonCounters daemon_counters(kar::daemon::Kard& kard);

/// Fills the daemon.* per-layer metrics from a counter delta plus the
/// client-side mean latency of the requests that waited for epochs.
void fill_daemon_layers(const DaemonCounters& before,
                        const DaemonCounters& after,
                        double mean_request_s,
                        const std::vector<std::string>& lines,
                        Layers& layers);

/// Direct RouteStore + ReconvergenceEngine replay of the preload and the
/// first `link_events` link transitions (ctrlplane.*, routing-free), plus
/// one install apply of `install_batch` routes.
void fill_ctrlplane_layers(const KardInputs& in, std::size_t link_events,
                           double install_batch, std::uint64_t seed,
                           Tracer& tracer, Layers& layers);

}  // namespace perfbench
