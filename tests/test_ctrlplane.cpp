// Unit tests for the incremental control plane (src/ctrlplane/): the route
// store's path index against a brute-force recount, the dynamic SPT and its
// reported next-hop changes against their from-scratch oracles, the
// reconvergence engine (incremental vs full-recompute), the versioned
// route-table install on sim::Network, and the rewired ReactiveController. The heavyweight cross-topology equivalence proof
// lives in tests/test_ctrlplane_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctrlplane/engine.hpp"
#include "ctrlplane/engine_mode.hpp"
#include "ctrlplane/route_store.hpp"
#include "ctrlplane/spt.hpp"
#include "obs/metrics.hpp"
#include "routing/paths.hpp"
#include "sim/network.hpp"
#include "sim/reactive_controller.hpp"
#include "support/testsupport.hpp"
#include "topogen/topogen.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using ctrlplane::DynamicSpt;
using ctrlplane::EngineConfig;
using ctrlplane::EngineMode;
using ctrlplane::GroupId;
using ctrlplane::LinkChange;
using ctrlplane::ReconvergenceEngine;
using ctrlplane::RouteKey;
using ctrlplane::RouteStore;
using topo::Scenario;

// -- EngineMode ---------------------------------------------------------------

TEST(EngineMode, ParsesAndPrints) {
  EXPECT_EQ(ctrlplane::engine_mode_from_string("incremental"),
            EngineMode::kIncremental);
  EXPECT_EQ(ctrlplane::engine_mode_from_string("INC"), EngineMode::kIncremental);
  EXPECT_EQ(ctrlplane::engine_mode_from_string("full"),
            EngineMode::kFullRecompute);
  EXPECT_EQ(ctrlplane::engine_mode_from_string("Full-Recompute"),
            EngineMode::kFullRecompute);
  EXPECT_THROW((void)ctrlplane::engine_mode_from_string("bogus"),
               std::invalid_argument);
  EXPECT_EQ(std::string(to_string(EngineMode::kIncremental)), "incremental");
  EXPECT_EQ(std::string(to_string(EngineMode::kFullRecompute)), "full");
}

// -- RouteStore ---------------------------------------------------------------

TEST(RouteStoreTest, AddValidatesEndpointsAndAssignsDenseKeys) {
  Scenario s = topo::make_fig1_network();
  const topo::Topology& t = s.topology;
  RouteStore store(t);
  EXPECT_THROW((void)store.add(t.at("SW4"), t.at("D")), std::invalid_argument);
  EXPECT_THROW((void)store.add(t.at("S"), t.at("SW7")), std::invalid_argument);
  EXPECT_EQ(store.add(t.at("S"), t.at("D")), 0u);
  EXPECT_EQ(store.add(t.at("D"), t.at("S")), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.get(0).live);  // registered dead until the engine runs
  EXPECT_EQ(store.destinations(),
            (std::vector<topo::NodeId>{t.at("D"), t.at("S")}));
}

/// Checks every path posting against its brute-force set — the groups to
/// that destination whose {src} ∪ core path ({src} alone when dead) holds
/// the node, each exactly once — and returns the total posting size.
std::size_t expect_exact_postings(const topo::Topology& t,
                                  const RouteStore& store,
                                  const std::string& where) {
  std::size_t total = 0;
  for (const topo::NodeId dst : store.destinations()) {
    std::vector<std::vector<GroupId>> expected(t.node_count());
    for (GroupId id = 0; id < store.group_count(); ++id) {
      const ctrlplane::RouteGroup& g = store.group(id);
      if (g.dst != dst) continue;
      expected[g.src].push_back(id);
      for (const topo::NodeId node : g.core_path) expected[node].push_back(id);
    }
    for (topo::NodeId node = 0; node < t.node_count(); ++node) {
      std::vector<GroupId> got = store.path_posting(dst, node);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected[node])
          << where << ": posting of " << t.name(node) << " to " << t.name(dst);
      total += got.size();
    }
  }
  return total;
}

TEST(RouteStoreTest, IndexesFollowReencodeWithdrawAndRevive) {
  Scenario s = topo::make_fig1_network();
  topo::Topology& t = s.topology;
  RouteStore store(t);
  ReconvergenceEngine engine(t, store);
  const RouteKey key = engine.add_route(t.at("S"), t.at("D"));

  const auto& initial = store.get(key);
  ASSERT_TRUE(initial.live);
  EXPECT_EQ(initial.core_path,
            (std::vector<topo::NodeId>{t.at("SW4"), t.at("SW7"), t.at("SW11")}));

  const auto posting = [&](const char* name) {
    return store.path_posting(t.at("D"), t.at(name));
  };
  const GroupId group = store.get(key).group;
  const std::vector<GroupId> just_group{group};

  EXPECT_EQ(posting("S"), just_group);
  EXPECT_EQ(posting("SW7"), just_group);
  EXPECT_TRUE(posting("SW5").empty());
  EXPECT_EQ(expect_exact_postings(t, store, "install"), 4u);

  // Re-encode around a failed primary link: the group moves onto SW5.
  const topo::LinkId primary = *t.link_between(t.at("SW7"), t.at("SW11"));
  t.set_link_up(primary, false);
  const auto epoch1 = engine.apply({{primary, false}});
  EXPECT_EQ(epoch1.updated_groups, (std::vector<GroupId>{group}));
  EXPECT_EQ(epoch1.stats.candidates, 1u);
  EXPECT_EQ(ctrlplane::updated_keys(store, epoch1),
            (std::vector<RouteKey>{key}));
  ASSERT_TRUE(store.get(key).live);
  EXPECT_EQ(store.get(key).core_path,
            (std::vector<topo::NodeId>{t.at("SW4"), t.at("SW7"), t.at("SW5"),
                                       t.at("SW11")}));
  EXPECT_EQ(posting("SW5"), just_group);
  (void)expect_exact_postings(t, store, "re-encode");

  // Withdraw: D's only uplink dies; the dead group stays posted at its
  // source alone.
  const topo::LinkId uplink = *t.link_between(t.at("SW11"), t.at("D"));
  t.set_link_up(uplink, false);
  const auto epoch2 = engine.apply({{uplink, false}});
  EXPECT_EQ(epoch2.stats.withdrawn, 1u);
  EXPECT_FALSE(store.get(key).live);
  EXPECT_TRUE(posting("SW4").empty());
  EXPECT_TRUE(posting("SW11").empty());
  EXPECT_EQ(posting("S"), just_group);
  (void)expect_exact_postings(t, store, "withdraw");

  // Revive on repair.
  t.set_link_up(uplink, true);
  const auto epoch3 = engine.apply({{uplink, true}});
  EXPECT_EQ(epoch3.stats.reencoded, 1u);
  ASSERT_TRUE(store.get(key).live);
  EXPECT_EQ(store.get(key).core_path,
            (std::vector<topo::NodeId>{t.at("SW4"), t.at("SW7"), t.at("SW5"),
                                       t.at("SW11")}));
  EXPECT_EQ(posting("SW11"), just_group);
  (void)expect_exact_postings(t, store, "revive");
}

// Flapping a core link moves groups off and back onto the same nodes every
// cycle; exact postings keep their size however long that goes on.
TEST(RouteStoreTest, PostingsStayExactUnderFlapping) {
  Scenario s = topo::make_rnp28();
  topo::Topology& t = s.topology;
  const std::vector<topo::NodeId> hosts = topo::attach_host_edges(t);
  RouteStore store(t);
  ReconvergenceEngine engine(t, store);
  for (const topo::NodeId src : hosts) {
    for (const topo::NodeId dst : hosts) {
      if (src != dst) (void)engine.add_route(src, dst);
    }
  }
  ASSERT_EQ(store.group_count(), 756u);
  const topo::LinkId link = *t.link_between(t.at("SW7"), t.at("SW13"));
  std::size_t reencoded = 0;
  const auto flap = [&](int cycles) {
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (const bool up : {false, true}) {
        t.set_link_up(link, up);
        reencoded += engine.apply({{link, up}}).stats.reencoded;
      }
    }
  };
  flap(10);
  ASSERT_GT(reencoded, 0u);  // the flap moves groups
  const std::size_t after_10 = expect_exact_postings(t, store, "10 cycles");
  flap(990);
  const std::size_t after_1000 = expect_exact_postings(t, store, "1000 cycles");
  EXPECT_EQ(after_10, after_1000);
}

// -- DynamicSpt ---------------------------------------------------------------

void expect_matches_oracle(const topo::Topology& t, const DynamicSpt& spt,
                           int step) {
  routing::PathOptions options;
  options.ignore_failures = false;
  const std::vector<double> oracle =
      routing::distances_to(t, spt.destination(), options);
  ASSERT_EQ(oracle.size(), spt.distances().size());
  for (std::size_t v = 0; v < oracle.size(); ++v) {
    ASSERT_EQ(spt.distances()[v], oracle[v])
        << "step " << step << ", node " << t.name(static_cast<topo::NodeId>(v))
        << " to " << t.name(spt.destination());
  }
}

/// The tree's whole next-hop table.
std::vector<topo::NodeId> next_hops(const topo::Topology& t,
                                    const DynamicSpt& spt) {
  std::vector<topo::NodeId> table(t.node_count());
  for (topo::NodeId v = 0; v < t.node_count(); ++v) {
    table[v] = spt.canonical_next_hop(v);
  }
  return table;
}

/// Applies one event and checks what it reports: the nodes whose next hop
/// differs from `before` (the table ahead of the call), each once. Returns
/// the update's stats.
ctrlplane::SptUpdateStats apply_and_check_changed(
    const topo::Topology& t, DynamicSpt& spt, const LinkChange& event,
    const std::string& where) {
  const std::vector<topo::NodeId> before = next_hops(t, spt);
  std::vector<topo::NodeId> changed;
  const ctrlplane::SptUpdateStats stats =
      spt.apply_link_event(event.link, event.up, changed);
  const std::set<topo::NodeId> reported(changed.begin(), changed.end());
  EXPECT_EQ(reported.size(), changed.size())
      << where << ": duplicate changed nodes";
  std::set<topo::NodeId> expected;
  for (topo::NodeId v = 0; v < t.node_count(); ++v) {
    if (spt.canonical_next_hop(v) != before[v]) expected.insert(v);
  }
  EXPECT_EQ(reported, expected)
      << where << (stats.fallback ? " (fallback rebuild)" : "") << " to "
      << t.name(spt.destination());
  return stats;
}

void churn_against_oracle(topo::Topology& t, topo::NodeId dst,
                          std::size_t threshold, int steps, common::Rng& rng) {
  DynamicSpt spt(t, dst, routing::PathMetric::kHopCount, threshold);
  expect_matches_oracle(t, spt, -1);
  for (int step = 0; step < steps; ++step) {
    const auto link = static_cast<topo::LinkId>(rng.below(t.link_count()));
    const bool up = !t.link(link).up;
    t.set_link_up(link, up);
    (void)apply_and_check_changed(t, spt, LinkChange{link, up},
                                  "step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
    expect_matches_oracle(t, spt, step);
  }
}

TEST(DynamicSptTest, MatchesFullDijkstraUnderRandomChurn) {
  common::Rng rng = testsupport::make_rng(0x5b71c0de, "DynamicSptChurn");
  // A tiny threshold forces the fallback path, a huge one forbids it; both
  // must track the oracle exactly.
  for (const std::size_t threshold : {std::size_t{1}, std::size_t{100000}}) {
    Scenario s = topo::make_random_connected(14, 8, 97);
    churn_against_oracle(s.topology, s.topology.at(s.route.dst_edge),
                         threshold, 250, rng);
  }
}

TEST(DynamicSptTest, MatchesOracleOnRnp28WithHostEdges) {
  common::Rng rng = testsupport::make_rng(0x28a717, "DynamicSptRnp28");
  Scenario s = topo::make_rnp28();
  topo::Topology& t = s.topology;
  const std::vector<topo::NodeId> hosts = topo::attach_host_edges(t);
  ASSERT_FALSE(hosts.empty());
  churn_against_oracle(t, hosts.front(), /*threshold=*/7, 150, rng);
  churn_against_oracle(t, t.at(s.route.dst_edge), /*threshold=*/100000, 150,
                       rng);
}

TEST(DynamicSptTest, CanonicalPathIsShortestUsableAndDeterministic) {
  Scenario s = topo::make_experimental15();
  topo::Topology& t = s.topology;
  const topo::NodeId src = t.at("AS1");
  const topo::NodeId dst = t.at("AS3");
  DynamicSpt spt(t, dst, routing::PathMetric::kHopCount, 1000);

  const auto check = [&](const DynamicSpt& tree) -> std::vector<topo::NodeId> {
    std::vector<topo::NodeId> path;
    EXPECT_TRUE(tree.canonical_path(src, path));
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    // Hop-count distance == link count along the extracted path, and every
    // hop is an up link.
    EXPECT_EQ(static_cast<double>(path.size() - 1), tree.distance(src));
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto link = t.link_between(path[i], path[i + 1]);
      EXPECT_TRUE(link.has_value());
      if (link.has_value()) {
        EXPECT_TRUE(t.link_up(*link));
      }
    }
    return path;
  };

  const auto before = check(spt);
  // Fail a primary-path link; the incremental tree and a freshly built one
  // must extract the identical canonical path (pure function of distances).
  const topo::LinkId link = *t.link_between(t.at("SW7"), t.at("SW13"));
  t.set_link_up(link, false);
  std::vector<topo::NodeId> changed;
  spt.apply_link_event(link, false, changed);
  EXPECT_FALSE(changed.empty());
  const auto after = check(spt);
  EXPECT_NE(before, after);
  DynamicSpt fresh(t, dst, routing::PathMetric::kHopCount, 1000);
  std::vector<topo::NodeId> fresh_path;
  ASSERT_TRUE(fresh.canonical_path(src, fresh_path));
  EXPECT_EQ(after, fresh_path);
  EXPECT_EQ(spt.canonical_next_hop(t.at("SW10")),
            fresh.canonical_next_hop(t.at("SW10")));
}

// -- Next-hop table -----------------------------------------------------------

/// The canonical next hop at `from`, derived from scratch: the usable port
/// minimising link cost + the tree's distance at the far end, ties toward
/// the smaller NodeId (spt.hpp's file comment), read through the port
/// queries rather than the adjacency span the tree itself walks.
topo::NodeId argmin_next_hop(const topo::Topology& t, const DynamicSpt& spt,
                             routing::PathMetric metric, topo::NodeId from) {
  if (from == spt.destination()) return topo::kInvalidNode;
  topo::NodeId best = topo::kInvalidNode;
  double best_cost = std::numeric_limits<double>::infinity();
  for (topo::PortIndex port = 0; port < t.port_count(from); ++port) {
    const topo::NodeId next = *t.neighbor(from, port);
    if (next != spt.destination() &&
        t.kind(next) != topo::NodeKind::kCoreSwitch) {
      continue;
    }
    if (!t.port_available(from, port)) continue;
    const double cost = spt.distance(next) +
                        routing::link_cost(t.link(t.link_at(from, port)), metric);
    if (cost == std::numeric_limits<double>::infinity()) continue;
    if (cost < best_cost || (cost == best_cost && next < best)) {
      best_cost = cost;
      best = next;
    }
  }
  return best;
}

/// Seeded fail/repair epochs of 1..max_events link changes, each advancing
/// one DynamicSpt per destination. A multi-event epoch sets every link's
/// final state before the first event is applied, as the engine's coalesced
/// epochs do (a link may flip twice in one epoch). After every epoch each
/// node's table entry must equal the from-scratch argmin, and the table a
/// freshly built tree's, and every event must report exactly the entries it
/// changed. `fallbacks` counts the fallback rebuilds taken.
void churn_next_hop_table(topo::Topology& t,
                          const std::vector<topo::NodeId>& dsts,
                          routing::PathMetric metric, std::size_t threshold,
                          std::size_t max_events, int epochs, common::Rng& rng,
                          std::size_t& fallbacks) {
  std::vector<std::unique_ptr<DynamicSpt>> spts;
  for (const topo::NodeId dst : dsts) {
    spts.push_back(std::make_unique<DynamicSpt>(t, dst, metric, threshold));
  }
  fallbacks = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::vector<bool> up(t.link_count());
    for (topo::LinkId link = 0; link < t.link_count(); ++link) {
      up[link] = t.link_up(link);
    }
    std::vector<LinkChange> events;
    const std::size_t count = 1 + rng.below(max_events);
    for (std::size_t i = 0; i < count; ++i) {
      const auto link = static_cast<topo::LinkId>(rng.below(t.link_count()));
      up[link] = !up[link];
      events.push_back(LinkChange{link, up[link]});
    }
    for (const LinkChange& e : events) t.set_link_up(e.link, up[e.link]);
    for (const auto& spt : spts) {
      for (std::size_t i = 0; i < events.size(); ++i) {
        const std::string where = "epoch " + std::to_string(epoch) +
                                  ", event " + std::to_string(i);
        if (apply_and_check_changed(t, *spt, events[i], where).fallback) {
          ++fallbacks;
        }
        if (::testing::Test::HasFailure()) return;
      }
      const DynamicSpt fresh(t, spt->destination(), metric, threshold);
      for (topo::NodeId v = 0; v < t.node_count(); ++v) {
        ASSERT_EQ(spt->canonical_next_hop(v), argmin_next_hop(t, *spt, metric, v))
            << "epoch " << epoch << " (" << events.size() << " events), node "
            << t.name(v) << " to " << t.name(spt->destination());
        ASSERT_EQ(spt->canonical_next_hop(v), fresh.canonical_next_hop(v))
            << "epoch " << epoch << ", node " << t.name(v);
      }
    }
  }
}

/// Edge nodes of `t`, at most `limit` of them, spread over the node order.
std::vector<topo::NodeId> some_edges(const topo::Topology& t, std::size_t limit) {
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  std::vector<topo::NodeId> out;
  const std::size_t step = std::max<std::size_t>(1, edges.size() / limit);
  for (std::size_t i = 0; i < edges.size() && out.size() < limit; i += step) {
    out.push_back(edges[i]);
  }
  return out;
}

TEST(NextHopTableTest, TracksArgminUnderSingleAndCoalescedChurn) {
  common::Rng rng = testsupport::make_rng(0x7ab1e5, "NextHopTable");
  struct Case {
    const char* name;
    Scenario scenario;
    routing::PathMetric metric;
  };
  std::vector<Case> cases;
  cases.push_back({"fig2+hosts", topo::make_experimental15(),
                   routing::PathMetric::kHopCount});
  cases.push_back({"rnp28+hosts", topo::make_rnp28(),
                   routing::PathMetric::kHopCount});
  cases.push_back({"waxman+hosts",
                   topogen::make_from_spec("gen:waxman:n=40,seed=11,beta=0.3"),
                   routing::PathMetric::kDelay});
  for (Case& c : cases) {
    (void)topo::attach_host_edges(c.scenario.topology);
    SCOPED_TRACE(c.name);
    topo::Topology& t = c.scenario.topology;
    const std::vector<topo::NodeId> dsts = some_edges(t, 6);
    ASSERT_FALSE(dsts.empty());
    // One event per epoch, then coalesced epochs of up to six, with the
    // incremental path only; then a threshold of 1, which sends every
    // delete of a tree link through the full-rebuild fallback.
    std::size_t fallbacks = 0;
    churn_next_hop_table(t, dsts, c.metric, 100000, 1, 120, rng, fallbacks);
    EXPECT_EQ(fallbacks, 0u);
    churn_next_hop_table(t, dsts, c.metric, 100000, 6, 60, rng, fallbacks);
    EXPECT_EQ(fallbacks, 0u);
    churn_next_hop_table(t, dsts, c.metric, 1, 3, 60, rng, fallbacks);
    EXPECT_GT(fallbacks, 0u);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// -- ReconvergenceEngine ------------------------------------------------------

LinkChange flip(topo::Topology& t, const char* a, const char* b, bool up) {
  const topo::LinkId link = *t.link_between(t.at(a), t.at(b));
  t.set_link_up(link, up);
  return LinkChange{link, up};
}

void expect_same_tables(const topo::Topology& t, const RouteStore& a,
                        const RouteStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (RouteKey key = 0; key < a.size(); ++key) {
    const auto& ra = a.get(key);
    const auto& rb = b.get(key);
    ASSERT_EQ(ra.live, rb.live) << "route " << key;
    if (!ra.live) continue;
    EXPECT_EQ(ra.core_path, rb.core_path) << "route " << key;
    EXPECT_EQ(ra.route.route_id, rb.route.route_id) << "route " << key;
    EXPECT_EQ(ctrlplane::forwarding_trace(t, ra.route),
              ctrlplane::forwarding_trace(t, rb.route))
        << "route " << key;
  }
}

TEST(ReconvergenceEngineTest, IncrementalMatchesFullRecomputeOnFig2) {
  Scenario s = topo::make_experimental15();
  topo::Topology& t = s.topology;
  RouteStore inc_store(t);
  RouteStore full_store(t);
  EngineConfig inc_config;
  EngineConfig full_config;
  full_config.mode = EngineMode::kFullRecompute;
  ReconvergenceEngine inc(t, inc_store, inc_config);
  ReconvergenceEngine full(t, full_store, full_config);
  const auto edges = t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  ASSERT_GE(edges.size(), 3u);
  for (const topo::NodeId src : edges) {
    for (const topo::NodeId dst : edges) {
      if (src == dst) continue;
      EXPECT_EQ(inc.add_route(src, dst), full.add_route(src, dst));
    }
  }
  expect_same_tables(t, inc_store, full_store);

  // Each epoch's flips happen right before the applies, so the topology
  // reflects exactly the events handed to the engines.
  const auto run_epoch = [&](const std::vector<LinkChange>& events) {
    const auto ri = inc.apply(events);
    const auto rf = full.apply(events);
    EXPECT_EQ(ri.version, rf.version);
    // Both modes report exactly the actually-changed keys.
    EXPECT_EQ(ctrlplane::updated_keys(inc_store, ri),
              ctrlplane::updated_keys(full_store, rf));
    expect_same_tables(t, inc_store, full_store);
  };
  run_epoch({flip(t, "SW7", "SW13", false)});
  run_epoch({flip(t, "SW13", "SW29", false)});
  run_epoch({flip(t, "SW7", "SW13", true)});
  // Two changes in one epoch.
  run_epoch({flip(t, "SW10", "SW7", false), flip(t, "SW10", "SW11", false)});
  run_epoch({flip(t, "SW10", "SW7", true), flip(t, "SW13", "SW29", true)});
  // The candidates never exceed the full engine's whole-table scan. (On a
  // 15-node net where every route crosses the core the two can be equal;
  // the scaling win is bench/churn_convergence's claim.)
  EXPECT_LE(inc.totals().candidates, full.totals().candidates);
}

// The member version rule (route_store.hpp), pinned epoch by epoch on
// fig1's single S -> D group and cross-checked against the full-recompute
// oracle, which decides and stamps every route on its own.
TEST(ReconvergenceEngineTest, MemberVersionRuleMatchesFullRecompute) {
  Scenario s = topo::make_fig1_network();
  topo::Topology& t = s.topology;
  RouteStore inc_store(t);
  RouteStore full_store(t);
  EngineConfig full_config;
  full_config.mode = EngineMode::kFullRecompute;
  ReconvergenceEngine inc(t, inc_store);
  ReconvergenceEngine full(t, full_store, full_config);
  const std::pair<topo::NodeId, topo::NodeId> s_to_d{t.at("S"), t.at("D")};
  const topo::LinkId uplink = *t.link_between(t.at("SW11"), t.at("D"));
  const topo::LinkId primary = *t.link_between(t.at("SW7"), t.at("SW11"));

  // Runs one epoch on both engines; returns the changed keys after
  // checking both engines agree on them and on every version stamp.
  const auto epoch = [&](std::vector<LinkChange> events,
                         std::vector<std::pair<topo::NodeId, topo::NodeId>>
                             installs,
                         std::vector<RouteKey> withdraws) {
    for (const LinkChange& e : events) t.set_link_up(e.link, e.up);
    const auto ri = inc.apply(events, installs, withdraws);
    const auto rf = full.apply(events, installs, withdraws);
    EXPECT_EQ(ri.version, rf.version);
    const std::vector<RouteKey> changed = ctrlplane::updated_keys(inc_store, ri);
    EXPECT_EQ(changed, ctrlplane::updated_keys(full_store, rf));
    for (RouteKey key = 0; key < inc_store.size(); ++key) {
      EXPECT_EQ(inc_store.get(key).version, full_store.get(key).version)
          << "epoch " << ri.version << ", route " << key;
    }
    return changed;
  };
  const auto version = [&](RouteKey key) { return inc_store.get(key).version; };

  // E1: D's only uplink fails. E2: route 0 is installed into the dead
  // group — its version reads 0, and it is not a changed key.
  EXPECT_TRUE(epoch({{uplink, false}}, {}, {}).empty());
  EXPECT_TRUE(epoch({}, {s_to_d}, {}).empty());
  EXPECT_FALSE(inc_store.get(0).live);
  EXPECT_EQ(version(0), 0u);

  // E3: repair — the group revives and restamps its member.
  EXPECT_EQ(epoch({{uplink, true}}, {}, {}), (std::vector<RouteKey>{0}));
  EXPECT_TRUE(inc_store.get(0).live);
  EXPECT_EQ(version(0), 3u);

  // E4: route 1 joins the live group at its install epoch; route 0 keeps 3.
  EXPECT_EQ(epoch({}, {s_to_d}, {}), (std::vector<RouteKey>{1}));
  EXPECT_EQ(version(0), 3u);
  EXPECT_EQ(version(1), 4u);

  // E5: withdraw route 1. E6: the primary link fails and the group
  // re-encodes — every member is restamped, the withdrawn one included.
  EXPECT_EQ(epoch({}, {}, {1}), (std::vector<RouteKey>{1}));
  EXPECT_EQ(version(1), 5u);
  EXPECT_EQ(epoch({{primary, false}}, {}, {}), (std::vector<RouteKey>{0, 1}));
  EXPECT_EQ(version(0), 6u);
  EXPECT_EQ(version(1), 6u);

  // E7: route 2 joins (live). E8: the group re-encodes (primary repaired)
  // in the same epoch that withdraws route 2: it reads the withdraw epoch.
  EXPECT_EQ(epoch({}, {s_to_d}, {}), (std::vector<RouteKey>{2}));
  EXPECT_EQ(epoch({{primary, true}}, {}, {2}),
            (std::vector<RouteKey>{0, 1, 2}));
  EXPECT_EQ(version(2), 8u);
  EXPECT_TRUE(inc_store.get(2).withdrawn);

  // E9: the uplink fails and route 3 is installed in the same epoch, after
  // the group died: the earlier members read 9, the newcomer 0.
  EXPECT_EQ(epoch({{uplink, false}}, {s_to_d}, {}),
            (std::vector<RouteKey>{0, 1, 2}));
  EXPECT_EQ(version(0), 9u);
  EXPECT_EQ(version(2), 9u);
  EXPECT_EQ(version(3), 0u);
  EXPECT_EQ(inc_store.live_count(), 0u);

  // E10: repair revives all four; the dead-installed member is restamped.
  EXPECT_EQ(epoch({{uplink, true}}, {}, {}),
            (std::vector<RouteKey>{0, 1, 2, 3}));
  EXPECT_EQ(version(3), 10u);
  EXPECT_EQ(inc_store.live_count(), 4u);
  EXPECT_EQ(inc_store.group_count(), 1u);
}

TEST(ReconvergenceEngineTest, MetricsFamiliesAndFallbackCounter) {
  Scenario s = topo::make_line(5);
  topo::Topology& t = s.topology;
  RouteStore store(t);
  EngineConfig config;
  config.spt_fallback_threshold = 1;  // any delete with >1 affected falls back
  ReconvergenceEngine engine(t, store, config);
  obs::MetricsRegistry registry(true);
  engine.attach_metrics(registry, {{"topology", "line"}});
  engine.add_route(t.at(s.route.src_edge), t.at(s.route.dst_edge));

  // Cutting the middle of a line strands the source side: withdrawal, and
  // an affected subtree of 3 nodes > threshold 1 -> fallback rebuild.
  const std::string& mid_a = s.route.core_path[1];
  const std::string& mid_b = s.route.core_path[2];
  const auto result = engine.apply({flip(t, mid_a.c_str(), mid_b.c_str(), false)});
  EXPECT_EQ(result.stats.withdrawn, 1u);
  EXPECT_EQ(result.stats.spt_fallbacks, 1u);

  const auto snap = registry.snapshot();
  for (const char* family :
       {"kar_ctrlplane_events_total", "kar_ctrlplane_epochs_total",
        "kar_ctrlplane_reencodes_total", "kar_ctrlplane_withdrawals_total",
        "kar_ctrlplane_spt_fallbacks_total", "kar_ctrlplane_routes",
        "kar_ctrlplane_reconvergence_seconds", "kar_ctrlplane_affected_routes",
        "kar_ctrlplane_updated_routes"}) {
    EXPECT_EQ(snap.families.count(family), 1u) << family;
  }
  const auto counter = [&](const char* family) {
    const auto& fam = snap.families.at(family);
    EXPECT_EQ(fam.series.size(), 1u) << family;
    return fam.series.begin()->second.count;
  };
  EXPECT_EQ(counter("kar_ctrlplane_events_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_epochs_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_withdrawals_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_spt_fallbacks_total"), 1u);
  EXPECT_EQ(counter("kar_ctrlplane_reconvergence_seconds"), 1u);  // 1 epoch
  EXPECT_EQ(snap.families.at("kar_ctrlplane_routes").series.begin()->second.value,
            1.0);
}

TEST(ForwardingTrace, WalksFig1Residues) {
  Scenario s = topo::make_fig1_network();
  const topo::Topology& t = s.topology;
  const routing::Controller controller(t);
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kUnprotected);
  const auto trace = ctrlplane::forwarding_trace(t, route);
  // R = 44: S uplink, then 44 mod 4 = 0, 44 mod 7 = 2, 44 mod 11 = 0.
  const std::vector<ctrlplane::TraceHop> expected = {
      {t.at("S"), 0}, {t.at("SW4"), 0}, {t.at("SW7"), 2}, {t.at("SW11"), 0}};
  EXPECT_EQ(trace, expected);
}

// -- sim::Network route table -------------------------------------------------

TEST(NetworkRouteTable, VersionedBatchedInstall) {
  Scenario s = topo::make_fig1_network();
  const routing::Controller controller(s.topology);
  sim::Network net(s.topology, controller, {});
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kUnprotected);
  EXPECT_EQ(net.route_table_version(), 0u);
  EXPECT_EQ(net.installed_route(0), nullptr);

  net.install_routes(1, {{0, &route}});
  EXPECT_EQ(net.route_table_version(), 1u);
  ASSERT_NE(net.installed_route(0), nullptr);
  EXPECT_EQ(net.installed_route(0)->route_id.to_u64(), 44u);

  // Equal version: staged initial loads are allowed.
  net.install_routes(1, {{1, &route}});
  EXPECT_EQ(net.installed_route_count(), 2u);

  // Withdrawal via nullptr.
  net.install_routes(2, {{0, nullptr}});
  EXPECT_EQ(net.installed_route(0), nullptr);
  EXPECT_EQ(net.installed_route_count(), 1u);

  // A stale epoch must be rejected.
  EXPECT_THROW(net.install_routes(1, {}), std::invalid_argument);
  EXPECT_EQ(net.route_table_version(), 2u);
}

// -- ReactiveController on the incremental engine -----------------------------

// Two independent islands: flows A->B (with a detour X3) and C->D (a bare
// line) share nothing, so an event on one island must not touch the other.
topo::Topology make_two_islands() {
  topo::Topology t;
  const auto a = t.add_edge_node("A");
  const auto b = t.add_edge_node("B");
  const auto c = t.add_edge_node("C");
  const auto d = t.add_edge_node("D");
  const auto x1 = t.add_switch("X1", 3);
  const auto x2 = t.add_switch("X2", 5);
  const auto x3 = t.add_switch("X3", 7);
  const auto y1 = t.add_switch("Y1", 11);
  const auto y2 = t.add_switch("Y2", 13);
  t.add_link(a, x1);
  t.add_link(x1, x2);
  t.add_link(x1, x3);
  t.add_link(x3, x2);
  t.add_link(x2, b);
  t.add_link(c, y1);
  t.add_link(y1, y2);
  t.add_link(y2, d);
  return t;
}

TEST(ReactiveControllerIncremental, OnlyAffectedFlowsReact) {
  topo::Topology t = make_two_islands();
  const routing::Controller controller(t);
  sim::Network net(t, controller, {});  // default engine: incremental
  sim::ReactiveController reactive(net, /*reaction_delay_s=*/0.010);
  EXPECT_EQ(reactive.engine_mode(), EngineMode::kIncremental);

  int ab_updates = 0;
  int cd_updates = 0;
  rns::BigUint ab_last;
  reactive.watch_flow(t.at("A"), t.at("B"),
                      [&](const routing::EncodedRoute& fresh) {
                        ++ab_updates;
                        ab_last = fresh.route_id;
                      });
  reactive.watch_flow(t.at("C"), t.at("D"),
                      [&](const routing::EncodedRoute&) { ++cd_updates; });
  // watch_flow installs the initial table (flow index == route key).
  EXPECT_EQ(net.installed_route_count(), 2u);
  ASSERT_NE(net.installed_route(0), nullptr);
  const rns::BigUint initial = net.installed_route(0)->route_id;

  // X1-X2 dies: only A->B reroutes (via X3); C->D is untouched.
  net.fail_link_at(1.0, "X1", "X2");
  net.events().run_until(2.0);
  EXPECT_EQ(reactive.reactions(), 1u);
  EXPECT_EQ(reactive.route_recomputes(), 1u);
  EXPECT_EQ(ab_updates, 1);
  EXPECT_EQ(cd_updates, 0);
  EXPECT_NE(ab_last, initial);
  EXPECT_EQ(net.route_table_version(), 1u);
  ASSERT_NE(net.installed_route(0), nullptr);
  EXPECT_EQ(net.installed_route(0)->route_id, ab_last);

  // X1-X3 dies too: A->B has no path left — withdrawn from the table, no
  // update callback (there is nothing to push).
  net.fail_link_at(2.5, "X1", "X3");
  net.events().run_until(3.5);
  EXPECT_EQ(reactive.reactions(), 2u);
  EXPECT_EQ(reactive.route_recomputes(), 2u);
  EXPECT_EQ(ab_updates, 1);
  EXPECT_EQ(cd_updates, 0);
  EXPECT_EQ(net.installed_route(0), nullptr);
  ASSERT_NE(net.installed_route(1), nullptr);
  EXPECT_EQ(net.route_table_version(), 2u);
}

TEST(ReactiveControllerFullRecompute, EveryFlowRecomputesEveryReaction) {
  topo::Topology t = make_two_islands();
  const routing::Controller controller(t);
  sim::NetworkConfig config;
  config.route_engine = EngineMode::kFullRecompute;
  sim::Network net(t, controller, config);
  sim::ReactiveController reactive(net, 0.010);
  EXPECT_EQ(reactive.engine_mode(), EngineMode::kFullRecompute);

  int ab_updates = 0;
  int cd_updates = 0;
  reactive.watch_flow(t.at("A"), t.at("B"),
                      [&](const routing::EncodedRoute&) { ++ab_updates; });
  reactive.watch_flow(t.at("C"), t.at("D"),
                      [&](const routing::EncodedRoute&) { ++cd_updates; });

  net.fail_link_at(1.0, "X1", "X2");
  net.events().run_until(2.0);
  // Legacy semantics: every watched flow recomputed and re-pushed, the
  // network's versioned route table untouched.
  EXPECT_EQ(reactive.reactions(), 1u);
  EXPECT_EQ(reactive.route_recomputes(), 2u);
  EXPECT_EQ(ab_updates, 1);
  EXPECT_EQ(cd_updates, 1);
  EXPECT_EQ(net.route_table_version(), 0u);
  EXPECT_EQ(net.installed_route_count(), 0u);
}

}  // namespace
}  // namespace kar
