// Zero-allocation regression test for the batched data plane (ISSUE 6).
//
// The whole point of PacketBatch + BumpArena is that the warmed
// steady-state forward loop — clear, push, forward_batch, read decisions —
// touches the heap exactly zero times. This test replaces the global
// operator new/delete with counting versions (routed through malloc/free)
// and asserts the count stays at zero across thousands of batch sweeps,
// for every deflection technique, with narrow routes, pre-memoized wide
// routes and dead ports forcing deflection draws in the mix.
//
// Registered under the `bench` ctest label next to the throughput smokes:
// an allocation sneaking into the hot loop is a performance regression
// before it is anything else.
//
// The same hook pins the control plane's group interning: a link epoch
// that re-encodes one endpoint group makes exactly as many allocations
// whether the group has 1 member route or 1,000 — the epoch writes one
// group record, never per-member state. And it pins path extraction: on a
// memo-warm store, a link epoch makes exactly as many allocations whether
// 1 or every endpoint group crossing the failed link re-encodes — each
// candidate's path is walked into the shard's scratch through the SPT's
// next-hop table, and the encoding memo is probed without copying it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "dataplane/arena.hpp"
#include "dataplane/batch.hpp"
#include "dataplane/switch.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace {
// Counting is thread-local and off by default, so gtest internals and
// other threads never perturb the measurement window.
thread_local bool g_counting = false;
thread_local std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace kar::dataplane {
namespace {

TEST(ZeroAlloc, CountingHookActuallyCounts) {
  // Guard the guard: if the replacement operators were not linked in, the
  // main assertion below would pass vacuously.
  g_allocations = 0;
  g_counting = true;
  auto* p = new std::uint64_t[8];
  g_counting = false;
  delete[] p;
  EXPECT_GE(g_allocations, 1u);
}

TEST(ZeroAlloc, WarmedBatchedForwardLoopDoesNotTouchTheHeap) {
  topo::Scenario s = topo::make_fig1_network();
  const topo::NodeId sw7 = s.topology.at("SW7");
  // A dead port makes residues miss so deflection draws run in the loop.
  const auto dead = s.topology.link_at(sw7, 1);
  ASSERT_NE(dead, topo::kInvalidLink);
  s.topology.set_link_up(dead, false);

  // Workload: mostly narrow route IDs (width-gated direct reduction) plus
  // wide ones that go through the ResidueCache memo, one HP random-walk
  // packet, one no-input-port packet.
  constexpr std::size_t kBatch = 32;
  auto rng = testsupport::make_rng(20260809, "ZeroAlloc");
  std::vector<Packet> packets(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    packets[i].kar.route_id = rns::BigUint(rng.below(5000));
    if (i % 8 == 3) {
      packets[i].kar.route_id += rns::BigUint(7) << (128 + 64 * (i % 4));
    }
  }
  packets[5].kar.deflected = true;

  for (const auto technique :
       {DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
        DeflectionTechnique::kAnyValidPort,
        DeflectionTechnique::kNotInputPort}) {
    const KarSwitch sw(s.topology, sw7, technique, ResiduePath::kFast);
    BumpArena arena(1 << 16);
    PacketBatch batch(arena, kBatch);

    auto sweep = [&](common::Rng& draw) {
      batch.clear();
      for (std::size_t i = 0; i < kBatch; ++i) {
        batch.push(&packets[i],
                   i % 16 == 9 ? kNoInPort
                               : static_cast<topo::PortIndex>(i % 3));
      }
      sw.forward_batch(batch, draw);
      std::uint64_t folded = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        folded += static_cast<std::uint64_t>(batch.decisions()[i].out_port);
      }
      return folded + batch.stats().forwarded;
    };

    // Warm-up: sizes the port scratch, memoizes every wide route.
    common::Rng warm_rng(1);
    volatile std::uint64_t sink = sweep(warm_rng);

    common::Rng loop_rng(2);
    g_allocations = 0;
    g_counting = true;
    for (int iteration = 0; iteration < 2000; ++iteration) {
      sink = sink + sweep(loop_rng);
    }
    g_counting = false;
    EXPECT_EQ(g_allocations, 0u)
        << to_string(technique) << " allocated in the warmed forward loop";
  }
}

/// Heap allocations of one link-failure epoch on rnp28 that re-encodes the
/// single group of `members` identical routes (after a warm-up fail/repair
/// cycle has populated the encoding memo and grown every posting).
std::uint64_t link_epoch_allocations(std::size_t members) {
  topo::Scenario s = topo::make_rnp28();
  topo::Topology& t = s.topology;
  const std::vector<topo::NodeId> hosts = topo::attach_host_edges(t);
  ctrlplane::RouteStore store(t);
  ctrlplane::ReconvergenceEngine engine(t, store);
  for (std::size_t i = 0; i < members; ++i) {
    (void)engine.add_route(hosts.front(), hosts.back());
  }
  const std::vector<topo::NodeId> core = store.get(0).core_path;
  EXPECT_GE(core.size(), 2u);
  const topo::LinkId link = *t.link_between(core[0], core[1]);
  const auto flip = [&](bool up) {
    t.set_link_up(link, up);
    const std::vector<ctrlplane::LinkChange> events{{link, up}};
    g_allocations = 0;
    g_counting = true;
    const ctrlplane::EpochResult result = engine.apply(events);
    g_counting = false;
    EXPECT_EQ(result.updated_groups.size(), 1u);
    EXPECT_EQ(result.stats.reencoded, members);
    return g_allocations;
  };
  (void)flip(false);
  (void)flip(true);
  return flip(false);
}

/// The core link of rnp28 (host edges attached) that the most canonical
/// paths to one host cross, with the sources of those paths in host order.
struct CrossingGroups {
  topo::NodeId dst = topo::kInvalidNode;
  topo::LinkId link = topo::kInvalidLink;
  std::vector<topo::NodeId> sources;
};

CrossingGroups busiest_core_link(topo::Topology& t,
                                 const std::vector<topo::NodeId>& hosts) {
  CrossingGroups best;
  for (const topo::NodeId dst : hosts) {
    ctrlplane::RouteStore store(t);
    ctrlplane::ReconvergenceEngine engine(t, store);
    std::vector<std::vector<topo::NodeId>> crossing(t.link_count());
    for (const topo::NodeId src : hosts) {
      if (src == dst) continue;
      const ctrlplane::RouteKey key = engine.add_route(src, dst);
      const std::vector<topo::NodeId>& core = store.get(key).core_path;
      for (std::size_t i = 0; i + 1 < core.size(); ++i) {
        crossing[*t.link_between(core[i], core[i + 1])].push_back(src);
      }
    }
    for (topo::LinkId link = 0; link < t.link_count(); ++link) {
      if (crossing[link].size() > best.sources.size()) {
        best = CrossingGroups{dst, link, crossing[link]};
      }
    }
  }
  return best;
}

/// Heap allocations of one failure epoch of `crossing.link` that re-encodes
/// the groups of the first `groups` crossing sources (one route each),
/// after two fail/repair cycles have warmed the encoding memo, the
/// engine's scratch and the postings' capacity (a posting holds each group
/// once, so a flapping group reuses the room it left).
std::uint64_t crossing_epoch_allocations(topo::Topology& t,
                                         const CrossingGroups& crossing,
                                         std::size_t groups) {
  ctrlplane::RouteStore store(t);
  ctrlplane::ReconvergenceEngine engine(t, store);
  for (std::size_t i = 0; i < groups; ++i) {
    (void)engine.add_route(crossing.sources[i], crossing.dst);
  }
  const auto flip = [&](bool up) {
    t.set_link_up(crossing.link, up);
    const std::vector<ctrlplane::LinkChange> events{{crossing.link, up}};
    g_allocations = 0;
    g_counting = true;
    const ctrlplane::EpochResult result = engine.apply(events);
    g_counting = false;
    EXPECT_EQ(result.updated_groups.size(), groups);
    EXPECT_EQ(result.stats.reencoded, groups);
    return g_allocations;
  };
  for (int cycle = 0; cycle < 2; ++cycle) {
    (void)flip(false);
    (void)flip(true);
  }
  const std::uint64_t allocations = flip(false);
  (void)flip(true);
  return allocations;
}

TEST(ZeroAlloc, LinkEpochAllocationsDoNotScaleWithCandidateGroups) {
  topo::Scenario s = topo::make_rnp28();
  topo::Topology& t = s.topology;
  const std::vector<topo::NodeId> hosts = topo::attach_host_edges(t);
  const CrossingGroups crossing = busiest_core_link(t, hosts);
  ASSERT_GE(crossing.sources.size(), 8u);
  const std::uint64_t one = crossing_epoch_allocations(t, crossing, 1);
  const std::uint64_t many =
      crossing_epoch_allocations(t, crossing, crossing.sources.size());
  EXPECT_GT(one, 0u);  // the hook is live on this path
  EXPECT_EQ(one, many) << crossing.sources.size() << " groups cross "
                       << t.name(t.link(crossing.link).a.node) << "-"
                       << t.name(t.link(crossing.link).b.node);
}

TEST(ZeroAlloc, LinkEpochAllocationsDoNotScaleWithGroupSize) {
  const std::uint64_t one = link_epoch_allocations(1);
  const std::uint64_t thousand = link_epoch_allocations(1000);
  EXPECT_GT(one, 0u);  // the hook is live on this path
  EXPECT_EQ(one, thousand);
}

}  // namespace
}  // namespace kar::dataplane
