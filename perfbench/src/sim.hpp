// The data-plane side of the benchmark: sim-failover's seeded inputs, one
// simulation of them on a bench-owned sim::Network, and the forwarding /
// residue replays of the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faultgen/schedule.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "routing/encoded_route.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "traffic/workload.hpp"

namespace perfbench {

/// Everything one simulation needs, built from the seed (the sim-failover
/// set-up): the topology, the compiled flow plan, the protected encodings
/// and the failure schedule.
struct SimInputs {
  std::unique_ptr<kar::traffic::Workload> workload;
  std::vector<kar::routing::EncodedRoute> forward;  ///< Data, src -> dst.
  std::vector<kar::routing::EncodedRoute> reverse;  ///< ACKs, dst -> src.
  kar::faultgen::FailureSchedule faults;
  double horizon_s = 0.0;   ///< Flows stop here; the queue then drains.
  double busy_s = 0.0;      ///< Arrivals and failures end here.
  double slice_s = 0.0;     ///< Simulated time per timed slice of [0, busy_s].
  double topo_build_ms = 0.0;
  double encode_us = 0.0;   ///< Mean plan + encode time per route.
};

/// `scale` shrinks flows and horizon together (1 = the workload's size);
/// `tracer` (may be null) wraps the route planning and encoding in a span.
[[nodiscard]] SimInputs make_sim_inputs(std::uint64_t seed, double scale,
                                        Tracer* tracer = nullptr);

/// The repeatable outcome of one simulation plus its wall-time profile.
struct SimOutcome {
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t delivered_segments = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t ooo_segments = 0;
  kar::sim::NetworkCounters counters;
  kar::dataplane::ResidueCache::Stats residue_cache;
  double prepare_s = 0.0;  ///< Wall seconds building the network and flows.
  double drain_s = 0.0;    ///< Wall seconds after the last slice.
  std::vector<double> slice_s;       ///< Wall seconds per simulated slice.
  std::vector<std::uint64_t> slice_hops;  ///< Packet hops per slice.
  std::vector<bool> slice_failover;  ///< A core link was down in the slice.

  /// Delivered segments, completed flows, deflections, drops by reason and
  /// retransmits: identical on every simulation of the same inputs.
  [[nodiscard]] std::string digest() const;
};

/// Runs the inputs once on a fresh network. `profile` (may be null) is
/// attached to the event queue; `tracer` wraps each slice in a span.
[[nodiscard]] SimOutcome simulate(const SimInputs& in,
                                  kar::sim::EventLoopProfile* profile,
                                  Tracer* tracer);

/// Per-layer data-plane metrics: the residue and forwarding replays over
/// the inputs' routes and port states, plus counts from `outcome` and the
/// event-loop `profile` of the simulations it summarizes.
void fill_sim_layers(const SimInputs& in, const SimOutcome& outcome,
                     const kar::sim::EventLoopProfile& profile,
                     std::size_t simulations, Tracer& tracer, Layers& layers);

}  // namespace perfbench
