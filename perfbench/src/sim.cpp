#include "sim.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "dataplane/arena.hpp"
#include "dataplane/batch.hpp"
#include "dataplane/switch.hpp"
#include "rns/prepared_mod.hpp"
#include "routing/controller.hpp"
#include "routing/protection.hpp"
#include "topogen/topogen.hpp"
#include "topology/graph.hpp"
#include "transport/flows.hpp"

namespace perfbench {

namespace {

/// A Waxman backbone on which the protected route IDs straddle 64 bits
/// (about 60% of the flows' routes are wider): short paths encode narrow,
/// long paths with their protection go wide, so both the plain residue
/// path and the ResidueCache path run.
constexpr const char* kTopologySpec = "gen:waxman:n=16,seed=1,beta=0.25";

constexpr std::uint64_t kFlowStream = 0xf10f;
constexpr std::uint64_t kFaultStream = 0xfa17;

// Full-size workload; make_sim_inputs scales flows and times together.
constexpr std::size_t kFlows = 1500;
constexpr double kArrivalWindowS = 3.0;  ///< Poisson arrivals over this.
/// Simulated time after the arrival window for every flow to finish
/// (TCP recovery after a failure can back off for seconds); not scaled.
constexpr double kDrainS = 7.0;
/// Timed slices over the arrival window (the busy part of the run).
constexpr std::size_t kSlices = 1000;
constexpr double kFaultRoundS = 0.3;
constexpr double kFailureProbability = 0.7;
constexpr double kMeanDowntimeS = 0.02;

/// One forwarding decision to replay: a packet at a switch of its path.
struct Hop {
  std::size_t sw;  ///< Index into the replay's switch list.
  kar::dataplane::Packet packet;
  kar::topo::PortIndex in_port;
};

}  // namespace

SimInputs make_sim_inputs(std::uint64_t seed, double scale, Tracer* tracer) {
  SimInputs in;
  const Clock::time_point b0 = Clock::now();
  kar::topo::Scenario scenario = kar::topogen::make_from_spec(kTopologySpec);
  in.topo_build_ms = seconds_since(b0) * 1e3;

  kar::traffic::WorkloadSpec spec;
  spec.flows = std::max<std::size_t>(
      8, static_cast<std::size_t>(static_cast<double>(kFlows) * scale));
  spec.arrivals = kar::traffic::ArrivalProcess::kPoisson;
  spec.arrival_rate_per_s =
      static_cast<double>(spec.flows) / (kArrivalWindowS * scale);
  spec.sizes = kar::traffic::SizeDistribution::kBoundedPareto;
  spec.seed = kar::common::derive_seed(seed, kFlowStream);
  in.busy_s = kArrivalWindowS * scale;
  in.horizon_s = in.busy_s + kDrainS;
  in.slice_s = in.busy_s / static_cast<double>(kSlices);
  spec.horizon_s = in.horizon_s;
  in.workload = std::make_unique<kar::traffic::Workload>(scenario, spec);

  const kar::topo::Topology& topo = in.workload->scenario().topology;
  const kar::routing::Controller controller(topo);
  const Clock::time_point e0 = Clock::now();
  {
    Span span(tracer, "routing.encode");
    for (const kar::traffic::FlowPlan& plan : in.workload->plan()) {
      std::vector<kar::topo::NodeId> core;
      for (const std::string& name : plan.core_path) {
        core.push_back(topo.at(name));
      }
      const kar::topo::NodeId src = topo.at(plan.src_edge);
      const kar::topo::NodeId dst = topo.at(plan.dst_edge);
      in.forward.push_back(controller.encode_path(
          src, core, dst,
          kar::routing::plan_driven_deflections(topo, core, dst)));
      std::reverse(core.begin(), core.end());
      in.reverse.push_back(controller.encode_path(
          dst, core, src,
          kar::routing::plan_driven_deflections(topo, core, src)));
    }
  }
  const std::size_t routes = 2 * std::max<std::size_t>(1, in.forward.size());
  in.encode_us = seconds_since(e0) * 1e6 / static_cast<double>(routes);

  // Core-link failures while the flows arrive: back-to-back seeded
  // kRandomUpDown rounds, each failing most core links once for a short
  // while and closed by repairing what it left down. Many short episodes
  // make every seed's run see a similar mix of failures.
  kar::faultgen::ScheduleConfig faults;
  faults.kind = kar::faultgen::ScheduleKind::kRandomUpDown;
  faults.horizon_s = kFaultRoundS * scale;
  faults.per_link_failure_probability = kFailureProbability;
  faults.mean_downtime_s = kMeanDowntimeS * scale;
  kar::common::Rng rng(kar::common::derive_seed(seed, kFaultStream));
  std::vector<bool> down(topo.link_count(), false);
  for (double start = 0.0; start + faults.horizon_s <= kArrivalWindowS * scale;
       start += faults.horizon_s) {
    for (const auto& event :
         kar::faultgen::generate_schedule(topo, faults, rng).events) {
      if (down[event.link] == event.fail) continue;
      down[event.link] = event.fail;
      in.faults.events.push_back({start + event.time, event.link, event.fail});
    }
    for (kar::topo::LinkId link = 0; link < down.size(); ++link) {
      if (!down[link]) continue;
      down[link] = false;
      in.faults.events.push_back({start + faults.horizon_s, link, false});
    }
  }
  in.faults.sort();
  return in;
}

std::string SimOutcome::digest() const {
  std::ostringstream out;
  out << "delivered_segments=" << delivered_segments
      << " completed=" << completed << '/' << flows
      << " deflections=" << counters.deflections
      << " drop_no_viable_port=" << counters.drop_no_viable_port
      << " drop_link_failed=" << counters.drop_link_failed
      << " drop_queue_overflow=" << counters.drop_queue_overflow
      << " drop_ttl=" << counters.drop_ttl
      << " drop_aqm_early=" << counters.drop_aqm_early
      << " retransmits=" << retransmits;
  return out.str();
}

SimOutcome simulate(const SimInputs& in, kar::sim::EventLoopProfile* profile,
                    Tracer* tracer) {
  SimOutcome out;
  const Clock::time_point t0 = Clock::now();
  kar::topo::Topology topology = in.workload->scenario().topology;
  const kar::routing::Controller controller(topology);
  kar::sim::NetworkConfig config;  // NIP deflection, per-packet path
  kar::sim::Network net(topology, controller, config);
  net.events().set_profile(profile);
  kar::transport::FlowDispatcher dispatcher(net);

  const auto& plan = in.workload->plan();
  std::vector<std::unique_ptr<kar::transport::BulkTransferFlow>> flows;
  flows.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    kar::transport::TcpParams tcp = in.workload->spec().tcp;
    tcp.limit_segments = plan[i].size_segments;
    auto flow = std::make_unique<kar::transport::BulkTransferFlow>(
        net, dispatcher, in.forward[i], in.reverse[i], i, tcp,
        in.workload->spec().goodput_bin_s);
    flow->start_at(plan[i].start_s);
    flow->stop_at(in.horizon_s);
    flows.push_back(std::move(flow));
  }
  for (const auto& event : in.faults.events) {
    const kar::topo::Link& link = topology.link(event.link);
    const std::string& a = topology.name(link.a.node);
    const std::string& b = topology.name(link.b.node);
    if (event.fail) {
      net.fail_link_at(event.time, a, b);
    } else {
      net.repair_link_at(event.time, a, b);
    }
  }

  out.prepare_s = seconds_since(t0);

  // Timed slices of simulated time; a slice is a failover slice when a
  // core link is down at any moment of it.
  std::size_t next_event = 0;
  std::size_t links_down = 0;
  const std::size_t slices =
      static_cast<std::size_t>(in.busy_s / in.slice_s + 0.5);
  for (std::size_t k = 1; k <= slices; ++k) {
    const double until = in.slice_s * static_cast<double>(k);
    bool failover = links_down > 0;
    while (next_event < in.faults.events.size() &&
           in.faults.events[next_event].time <= until) {
      const bool fail = in.faults.events[next_event++].fail;
      links_down = fail ? links_down + 1 : links_down - 1;
      failover = failover || fail;
    }
    const std::uint64_t hops0 = net.counters().hops;
    const Clock::time_point s0 = Clock::now();
    {
      Span span(tracer, "sim.run_until", k);
      (void)net.events().run_until(until);
    }
    out.slice_s.push_back(seconds_since(s0));
    out.slice_hops.push_back(net.counters().hops - hops0);
    out.slice_failover.push_back(failover);
  }
  const Clock::time_point d0 = Clock::now();
  {
    Span span(tracer, "sim.drain");
    (void)net.events().run_until(in.horizon_s);
    (void)net.events().run_all();
  }
  out.drain_s = seconds_since(d0);

  out.flows = flows.size();
  for (const auto& flow : flows) {
    if (flow->sender().complete()) ++out.completed;
    out.delivered_segments += flow->receiver().stats().delivered_segments;
    out.delivered_bytes += flow->receiver().stats().delivered_bytes;
    out.retransmits += flow->sender().stats().retransmits;
    out.segments_sent += flow->sender().stats().segments_sent;
    out.timeouts += flow->sender().stats().timeouts;
    out.ooo_segments += flow->receiver().stats().out_of_order_segments;
  }
  out.counters = net.counters();
  out.residue_cache = net.residue_cache_stats();
  net.events().set_profile(nullptr);
  return out;
}

void fill_sim_layers(const SimInputs& in, const SimOutcome& outcome,
                     const kar::sim::EventLoopProfile& profile,
                     std::size_t simulations, Tracer& tracer, Layers& layers) {
  // Port states: the moment of the schedule with the most links down.
  kar::topo::Topology topo = in.workload->scenario().topology;
  {
    std::vector<bool> down(topo.link_count(), false);
    std::vector<bool> worst = down;
    std::size_t count = 0;
    std::size_t most = 0;
    for (const auto& event : in.faults.events) {
      if (down[event.link] != event.fail) {
        if (event.fail) {
          ++count;
        } else {
          --count;
        }
      }
      down[event.link] = event.fail;
      if (count > most) {
        most = count;
        worst = down;
      }
    }
    for (kar::topo::LinkId link = 0; link < worst.size(); ++link) {
      topo.set_link_up(link, !worst[link]);
    }
  }

  // Every primary-path hop of every route, as the switch would see it.
  std::vector<kar::dataplane::KarSwitch> switches;
  std::map<kar::topo::NodeId, std::size_t> switch_index;
  std::vector<Hop> hops;
  std::size_t wide = 0;
  std::vector<const kar::routing::EncodedRoute*> routes;
  for (const auto& r : in.forward) routes.push_back(&r);
  for (const auto& r : in.reverse) routes.push_back(&r);
  for (const kar::routing::EncodedRoute* route : routes) {
    if (!route->route_id.fits_u64()) ++wide;
    kar::topo::NodeId prev = route->src_edge;
    for (std::size_t j = 0; j < route->primary_count; ++j) {
      const kar::topo::NodeId node = route->assignments[j].node;
      auto [it, fresh] = switch_index.emplace(node, switches.size());
      if (fresh) {
        switches.emplace_back(
            topo, node, kar::dataplane::DeflectionTechnique::kNotInputPort);
      }
      Hop hop{it->second, {}, *topo.port_to(node, prev)};
      hop.packet.kar.route_id = route->route_id;
      hop.packet.src_edge = route->src_edge;
      hop.packet.dst_edge = route->dst_edge;
      hops.push_back(std::move(hop));
      prev = node;
    }
  }
  layers.rns_wide_route_share =
      static_cast<double>(wide) /
      static_cast<double>(std::max<std::size_t>(routes.size(), 1));

  constexpr int kPasses = 5;
  // Enough rounds over all hops for ~400k timed decisions per pass.
  const std::size_t rounds =
      std::max<std::size_t>(1, 400000 / std::max<std::size_t>(hops.size(), 1));
  const double per_op = 1e9 / static_cast<double>(rounds * hops.size());
  kar::common::Rng rng(1);

  // rns: PreparedMod reduction of every route ID by every path switch ID.
  {
    std::vector<kar::rns::PreparedMod> mods;
    for (const auto& sw : switches) mods.emplace_back(sw.switch_id());
    double best = 1e300;
    for (int pass = 0; pass < kPasses; ++pass) {
      Span span(&tracer, "rns.reduce");
      const Clock::time_point t0 = Clock::now();
      std::uint64_t sink = 0;
      for (std::size_t r = 0; r < rounds; ++r) {
        for (const Hop& hop : hops) {
          sink += mods[hop.sw].reduce(hop.packet.kar.route_id);
        }
      }
      keep(sink);
      best = std::min(best, seconds_since(t0));
    }
    layers.rns_reduce_ns = best * per_op;
  }
  // dataplane: per-packet forward(), and forward_batch() at 1 and 32.
  {
    double best = 1e300;
    for (int pass = 0; pass < kPasses; ++pass) {
      Span span(&tracer, "dataplane.forward");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t r = 0; r < rounds; ++r) {
        for (const Hop& hop : hops) {
          const auto decision =
              switches[hop.sw].forward(hop.packet, hop.in_port, rng);
          keep(decision);
        }
      }
      best = std::min(best, seconds_since(t0));
    }
    layers.fwd_packet_ns = best * per_op;
  }
  // Group hops by switch so a batch holds packets of one switch.
  std::vector<std::vector<Hop*>> by_switch(switches.size());
  for (Hop& hop : hops) by_switch[hop.sw].push_back(&hop);
  for (const std::size_t size : {std::size_t{1}, std::size_t{32}}) {
    kar::dataplane::BumpArena arena(
        kar::dataplane::PacketBatch::arena_bytes(size));
    kar::dataplane::PacketBatch batch(arena, size);
    double best = 1e300;
    for (int pass = 0; pass < kPasses; ++pass) {
      Span span(&tracer, size == 1 ? "dataplane.forward_batch1"
                                   : "dataplane.forward_batch32");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t s = 0; s < by_switch.size(); ++s) {
          const auto& list = by_switch[s];
          for (std::size_t i = 0; i < list.size();) {
            batch.clear();
            for (; i < list.size() && !batch.full(); ++i) {
              batch.push(&list[i]->packet, list[i]->in_port);
            }
            switches[s].forward_batch(batch, rng);
            keep(batch.decisions()[0]);
          }
        }
      }
      best = std::min(best, seconds_since(t0));
    }
    (size == 1 ? layers.fwd_batch1_ns : layers.fwd_batch32_ns) = best * per_op;
  }

  const auto& cache = outcome.residue_cache;
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  layers.fwd_residue_cache_hit_ratio =
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
  layers.fwd_deflected_share =
      outcome.counters.hops > 0
          ? static_cast<double>(outcome.counters.deflections) /
                static_cast<double>(outcome.counters.hops)
          : 0.0;
  layers.routing_encode_us = in.encode_us;

  const double sims =
      static_cast<double>(std::max<std::size_t>(simulations, 1));
  const auto kind_ms = [&](kar::sim::EventKind kind) {
    return profile.kinds[static_cast<std::size_t>(kind)].wall_s * 1e3 / sims;
  };
  layers.sim_events = static_cast<double>(profile.total_events()) / sims;
  layers.sim_event_ns =
      profile.total_events() > 0
          ? profile.total_wall_s() * 1e9 /
                static_cast<double>(profile.total_events())
          : 0.0;
  using kar::sim::EventKind;
  layers.sim_self_ms_link_arrival = kind_ms(EventKind::kLinkArrival);
  layers.sim_self_ms_switch_process = kind_ms(EventKind::kSwitchProcess);
  layers.sim_self_ms_transport_timer = kind_ms(EventKind::kTransportTimer);

  layers.tcp_retransmit_ratio =
      outcome.segments_sent > 0
          ? static_cast<double>(outcome.retransmits) /
                static_cast<double>(outcome.segments_sent)
          : 0.0;
  layers.tcp_timeouts = static_cast<double>(outcome.timeouts);
  layers.tcp_ooo_segments = static_cast<double>(outcome.ooo_segments);
}

}  // namespace perfbench
