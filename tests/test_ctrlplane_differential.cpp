// Differential proof that the incremental reconvergence engine and the
// full-recompute oracle maintain bit-identical route tables.
//
// 200 seeded churn sequences across fig1, fig2 (the 15-node experimental
// network) and rnp28, with host edges attached so every topology offers
// many distinct edge pairs. Each sequence runs one incremental and one
// full-recompute engine over the SAME topology object through the same
// epochs (schedule events grouped by timestamp) and asserts, after every
// epoch: identical liveness, route IDs, port assignments, primary core
// paths, per-route version stamps, updated-key lists and pure-modulo
// forwarding traces.
//
// Schedule families rotate through fail/repair churn (kRandomUpDown),
// correlated cuts (kSrlgGroups), flapping and permanent k-failure sweeps;
// half the sequences plan driven-deflection protection, half encode bare
// primary paths.
//
// A second suite pins the sharded reconvergence path: the same sequences
// run through incremental engines at shard widths 1, 4 and
// hardware_concurrency, and every epoch must be *bit-identical* across
// widths — version stamps and updated-key lists included, not just final
// tables — because sharding is specified as a pure throughput knob
// (docs/ctrlplane.md).
//
// A third test coalesces random mixes of failures and repairs into one
// epoch, the topology holding every final link state before the first
// event is applied (as the daemon's batched epochs do): a failure's
// re-settled subtree can then fall through a pending repair, and the
// engine must follow that decrease like a repair's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "faultgen/schedule.hpp"
#include "support/testsupport.hpp"
#include "topogen/topogen.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using ctrlplane::EngineConfig;
using ctrlplane::EngineMode;
using ctrlplane::LinkChange;
using ctrlplane::ReconvergenceEngine;
using ctrlplane::RouteKey;
using ctrlplane::RouteStore;
using faultgen::FailureSchedule;
using faultgen::ScheduleConfig;
using faultgen::ScheduleKind;
using topo::Scenario;

Scenario make_scenario(const std::string& name) {
  if (name == "fig1") return topo::make_fig1_network();
  if (name == "fig2") return topo::make_experimental15();
  return topo::make_rnp28();
}

ScheduleConfig schedule_for(std::uint64_t sequence) {
  ScheduleConfig config;
  config.horizon_s = 1.0;
  switch (sequence % 4) {
    case 0:
      config.kind = ScheduleKind::kRandomUpDown;
      config.per_link_failure_probability = 0.35;
      config.mean_downtime_s = 0.3;
      break;
    case 1:
      config.kind = ScheduleKind::kSrlgGroups;
      config.group_count = 2;
      config.group_size = 2;
      config.mean_downtime_s = 0.25;
      break;
    case 2:
      config.kind = ScheduleKind::kFlapping;
      config.flapping_links = 2;
      config.flap_half_period_s = 0.1;
      break;
    default:
      config.kind = ScheduleKind::kKFailureSweep;
      config.k_failures = 3;
      break;
  }
  return config;
}

void expect_identical_tables(const topo::Topology& t, const RouteStore& inc,
                             const RouteStore& full, const std::string& where) {
  ASSERT_EQ(inc.size(), full.size());
  for (RouteKey key = 0; key < inc.size(); ++key) {
    const auto& a = inc.get(key);
    const auto& b = full.get(key);
    ASSERT_EQ(a.live, b.live) << where << ", route " << key << " ("
                              << t.name(a.src) << " -> " << t.name(a.dst) << ")";
    if (!a.live) continue;
    ASSERT_EQ(a.core_path, b.core_path) << where << ", route " << key;
    ASSERT_EQ(a.route.route_id, b.route.route_id)
        << where << ", route " << key << " (" << t.name(a.src) << " -> "
        << t.name(a.dst) << ")";
    ASSERT_EQ(a.route.assignments.size(), b.route.assignments.size())
        << where << ", route " << key;
    for (std::size_t i = 0; i < a.route.assignments.size(); ++i) {
      ASSERT_EQ(a.route.assignments[i].node, b.route.assignments[i].node)
          << where << ", route " << key << ", assignment " << i;
      ASSERT_EQ(a.route.assignments[i].port, b.route.assignments[i].port)
          << where << ", route " << key << ", assignment " << i;
    }
    ASSERT_EQ(ctrlplane::forwarding_trace(t, a.route),
              ctrlplane::forwarding_trace(t, b.route))
        << where << ", route " << key;
  }
}

/// The incremental engine's candidates are the groups whose path crosses a
/// changed next hop: exactly the changed groups on a one-event epoch, and
/// on a multi-event epoch at least those (an entry may change and change
/// back).
void expect_exact_candidates(const ctrlplane::EpochResult& result,
                             std::size_t events, const std::string& where) {
  if (events == 1) {
    ASSERT_EQ(result.stats.candidates, result.updated_groups.size()) << where;
  } else {
    ASSERT_GE(result.stats.candidates, result.updated_groups.size()) << where;
  }
}

void run_sequence(const std::string& topology, std::uint64_t sequence,
                  common::Rng& rng) {
  Scenario s = make_scenario(topology);
  topo::Topology& t = s.topology;
  (void)topo::attach_host_edges(t);
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  ASSERT_GE(edges.size(), 2u);

  RouteStore inc_store(t);
  RouteStore full_store(t);
  EngineConfig inc_config;
  EngineConfig full_config;
  full_config.mode = EngineMode::kFullRecompute;
  // Half the sequences exercise the memoised protection planner, half the
  // bare-primary encoding path.
  inc_config.plan_protection = full_config.plan_protection =
      (sequence % 2 == 0);
  ReconvergenceEngine inc(t, inc_store, inc_config);
  ReconvergenceEngine full(t, full_store, full_config);

  const std::size_t route_count = 25;
  for (std::size_t i = 0; i < route_count; ++i) {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;  // uniform over the other edges
    ASSERT_EQ(inc.add_route(edges[si], edges[di]),
              full.add_route(edges[si], edges[di]));
  }
  const std::string tag = topology + " seq " + std::to_string(sequence);
  expect_identical_tables(t, inc_store, full_store, tag + " initial");

  common::Rng schedule_rng(common::derive_seed(0x0d1ffe12ULL, sequence));
  const FailureSchedule schedule =
      faultgen::generate_schedule(t, schedule_for(sequence), schedule_rng);

  // Group the time-sorted events into epochs (equal timestamps coalesce,
  // exactly like the reaction-delay window of sim::ReactiveController).
  std::size_t i = 0;
  std::size_t epoch_index = 0;
  while (i < schedule.events.size()) {
    std::size_t j = i;
    std::vector<LinkChange> events;
    while (j < schedule.events.size() &&
           schedule.events[j].time == schedule.events[i].time) {
      const faultgen::LinkEvent& e = schedule.events[j];
      t.set_link_up(e.link, !e.fail);
      events.push_back(LinkChange{e.link, !e.fail});
      ++j;
    }
    const auto ri = inc.apply(events);
    const auto rf = full.apply(events);
    const std::string where = tag + " epoch " + std::to_string(epoch_index);
    ASSERT_EQ(ri.version, rf.version) << where;
    ASSERT_EQ(ctrlplane::updated_keys(inc_store, ri),
              ctrlplane::updated_keys(full_store, rf))
        << where;
    expect_exact_candidates(ri, events.size(), where);
    expect_identical_tables(t, inc_store, full_store, where);
    for (RouteKey key = 0; key < inc_store.size(); ++key) {
      ASSERT_EQ(inc_store.get(key).version, full_store.get(key).version)
          << where << ", route " << key << " version stamp";
    }
    i = j;
    ++epoch_index;
  }
}

// Serial vs sharded incremental engines over identical epochs. Stricter
// than expect_identical_tables: a shard width must not even perturb the
// per-route version stamps.
void run_sharded_sequence(const std::string& topology, std::uint64_t sequence,
                          common::Rng& rng) {
  const std::vector<std::size_t> widths = {
      1, 4, std::max<std::size_t>(1, std::thread::hardware_concurrency())};
  Scenario s = make_scenario(topology);
  topo::Topology& t = s.topology;
  (void)topo::attach_host_edges(t);
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);

  std::vector<std::unique_ptr<RouteStore>> stores;
  std::vector<std::unique_ptr<ReconvergenceEngine>> engines;
  for (const std::size_t shards : widths) {
    EngineConfig config;
    config.shards = shards;
    config.plan_protection = (sequence % 2 == 0);
    stores.push_back(std::make_unique<RouteStore>(t));
    engines.push_back(
        std::make_unique<ReconvergenceEngine>(t, *stores.back(), config));
  }

  for (std::size_t i = 0; i < 25; ++i) {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;
    const RouteKey key = engines[0]->add_route(edges[si], edges[di]);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(engines[e]->add_route(edges[si], edges[di]), key);
    }
  }

  const std::string tag =
      topology + " sharded seq " + std::to_string(sequence);
  common::Rng schedule_rng(common::derive_seed(0x54a6dedULL, sequence));
  const FailureSchedule schedule =
      faultgen::generate_schedule(t, schedule_for(sequence), schedule_rng);

  std::size_t i = 0;
  std::size_t epoch_index = 0;
  while (i < schedule.events.size()) {
    std::size_t j = i;
    std::vector<LinkChange> events;
    while (j < schedule.events.size() &&
           schedule.events[j].time == schedule.events[i].time) {
      const faultgen::LinkEvent& e = schedule.events[j];
      t.set_link_up(e.link, !e.fail);
      events.push_back(LinkChange{e.link, !e.fail});
      ++j;
    }
    const auto serial = engines[0]->apply(events);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      const auto sharded = engines[e]->apply(events);
      const std::string where = tag + " epoch " + std::to_string(epoch_index) +
                                " shards " + std::to_string(widths[e]);
      ASSERT_EQ(serial.version, sharded.version) << where;
      ASSERT_EQ(serial.updated_groups, sharded.updated_groups) << where;
      ASSERT_EQ(ctrlplane::updated_keys(*stores[0], serial),
                ctrlplane::updated_keys(*stores[e], sharded))
          << where;
      ASSERT_EQ(serial.stats.candidates, sharded.stats.candidates) << where;
      ASSERT_EQ(serial.stats.reencoded, sharded.stats.reencoded) << where;
      ASSERT_EQ(serial.stats.withdrawn, sharded.stats.withdrawn) << where;
      expect_identical_tables(t, *stores[0], *stores[e], where);
      for (RouteKey key = 0; key < stores[0]->size(); ++key) {
        ASSERT_EQ(stores[0]->get(key).version, stores[e]->get(key).version)
            << where << ", route " << key << " version stamp";
      }
    }
    i = j;
    ++epoch_index;
  }
}

// One parameter row: topology name and number of churn sequences. PrintTo
// prints only the name, so test names stay stable across builds and runs
// (a raw const char* would print its address).
struct TopologyCase {
  const char* topology;
  int sequences;
};

void PrintTo(const TopologyCase& c, std::ostream* os) { *os << c.topology; }

class CtrlplaneDifferential : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(CtrlplaneDifferential, IncrementalEqualsFullRecompute) {
  const auto [topology, sequences] = GetParam();
  common::Rng rng = testsupport::make_rng(
      0xd1ffULL ^ std::hash<std::string>{}(topology), "CtrlplaneDifferential");
  for (int sequence = 0; sequence < sequences; ++sequence) {
    run_sequence(topology, static_cast<std::uint64_t>(sequence), rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// 70 + 70 + 60 = 200 churn sequences.
INSTANTIATE_TEST_SUITE_P(
    Topologies, CtrlplaneDifferential,
    ::testing::Values(TopologyCase{"fig1", 70}, TopologyCase{"fig2", 70},
                      TopologyCase{"rnp28", 60}));

class CtrlplaneShardedDifferential
    : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(CtrlplaneShardedDifferential, ShardWidthsBitIdentical) {
  const auto [topology, sequences] = GetParam();
  common::Rng rng = testsupport::make_rng(
      0x54a6dULL ^ std::hash<std::string>{}(topology),
      "CtrlplaneShardedDifferential");
  for (int sequence = 0; sequence < sequences; ++sequence) {
    run_sharded_sequence(topology, static_cast<std::uint64_t>(sequence), rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// 3 engines x 3 shard widths per sequence keeps this pricier than the
// serial suite, so fewer sequences; all four schedule families still
// rotate through on every topology.
INSTANTIATE_TEST_SUITE_P(
    Topologies, CtrlplaneShardedDifferential,
    ::testing::Values(TopologyCase{"fig1", 16}, TopologyCase{"fig2", 16},
                      TopologyCase{"rnp28", 12}));

TEST(CtrlplaneCoalescedDifferential, MixedEpochsEqualFullRecompute) {
  common::Rng rng =
      testsupport::make_rng(0xc0a1e5ceULL, "CtrlplaneCoalescedDifferential");
  for (const std::string topology :
       {"rnp28", "gen:waxman:n=40,seed=11,beta=0.3"}) {
    Scenario s = topogen::is_gen_spec(topology)
                     ? topogen::make_from_spec(topology)
                     : make_scenario(topology);
    topo::Topology& t = s.topology;
    const std::vector<topo::NodeId> hosts = topo::attach_host_edges(t);
    ASSERT_GE(hosts.size(), 2u);
    RouteStore inc_store(t);
    RouteStore full_store(t);
    EngineConfig inc_config;
    EngineConfig full_config;
    full_config.mode = EngineMode::kFullRecompute;
    inc_config.plan_protection = full_config.plan_protection = false;
    ReconvergenceEngine inc(t, inc_store, inc_config);
    ReconvergenceEngine full(t, full_store, full_config);
    // One route per ordered host pair: a decrease missed at any node
    // shows up in some group.
    for (const topo::NodeId src : hosts) {
      for (const topo::NodeId dst : hosts) {
        if (src == dst) continue;
        ASSERT_EQ(inc.add_route(src, dst), full.add_route(src, dst));
      }
    }
    for (int epoch = 0; epoch < 200; ++epoch) {
      std::vector<bool> up(t.link_count());
      for (topo::LinkId link = 0; link < t.link_count(); ++link) {
        up[link] = t.link_up(link);
      }
      std::vector<LinkChange> events;
      const std::size_t count = 1 + rng.below(5);
      for (std::size_t i = 0; i < count; ++i) {
        const auto link = static_cast<topo::LinkId>(rng.below(t.link_count()));
        up[link] = !up[link];
        events.push_back(LinkChange{link, up[link]});
      }
      for (const LinkChange& e : events) t.set_link_up(e.link, up[e.link]);
      const auto ri = inc.apply(events);
      const auto rf = full.apply(events);
      const std::string where =
          topology + " epoch " + std::to_string(epoch) + " (" +
          std::to_string(events.size()) + " events)";
      ASSERT_EQ(ctrlplane::updated_keys(inc_store, ri),
                ctrlplane::updated_keys(full_store, rf))
          << where;
      expect_exact_candidates(ri, events.size(), where);
      expect_identical_tables(t, inc_store, full_store, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace kar
