#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <set>

#include "gen/generator.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

TEST(TopologyTest, OutgoingLinksGroupedPerMachine) {
  const Scenario s = testing::chain_scenario();
  const Topology topo(s);
  EXPECT_EQ(topo.machine_count(), 3u);
  EXPECT_EQ(topo.out_edges(MachineId(0)).size(), 1u);
  EXPECT_EQ(topo.out_edges(MachineId(1)).size(), 1u);
  EXPECT_TRUE(topo.out_edges(MachineId(2)).empty());
  EXPECT_TRUE(topo.receivers(MachineId(2)).empty());
  ASSERT_EQ(topo.receivers(MachineId(0)).size(), 1u);
  EXPECT_EQ(topo.receivers(MachineId(0))[0].to, MachineId(1));
  EXPECT_EQ(s.vlink_to(topo.out_edges(MachineId(0))[0].link), MachineId(1));
}

TEST(TopologyTest, OutgoingSortedByDestinationThenWindow) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 2, 1000, Interval{at_min(10), at_min(20)})
                         .link(0, 1, 1000, Interval{at_min(30), at_min(40)})
                         .window(Interval{at_min(0), at_min(5)})
                         .build_unchecked();
  const Topology topo(s);
  const auto out = topo.out_edges(MachineId(0));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(s.vlink_to(out[0].link), MachineId(1));
  EXPECT_EQ(out[0].window.begin, at_min(0));
  EXPECT_EQ(s.vlink_to(out[1].link), MachineId(1));
  EXPECT_EQ(out[1].window.begin, at_min(30));
  EXPECT_EQ(s.vlink_to(out[2].link), MachineId(2));

  // One group per receiver, covering the out-edges in order.
  const auto groups = topo.receivers(MachineId(0));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].to, MachineId(1));
  EXPECT_EQ(topo.edges(groups[0]).size(), 2u);
  EXPECT_EQ(topo.edges(groups[0]).data(), out.data());
  EXPECT_EQ(groups[1].to, MachineId(2));
  ASSERT_EQ(topo.edges(groups[1]).size(), 1u);
  EXPECT_EQ(topo.edges(groups[1])[0].link, out[2].link);
}

// Each out-edge carries its virtual link's window, bandwidth and physical
// latency inline, equal to what the scenario says.
TEST(TopologyTest, OutEdgesCarryLinkFieldsInline) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 1000, Interval{at_min(10), at_min(20)})
                         .window(Interval{at_min(30), at_min(40)})
                         .link(0, 1, 5000, kAlways)
                         .build_unchecked();
  const Topology topo(s);
  const auto out = topo.out_edges(MachineId(0));
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const VirtualLink& vl = s.vlink(out[i].link);
    EXPECT_EQ(out[i].window, vl.window);
    EXPECT_EQ(out[i].bandwidth_bps, vl.bandwidth_bps);
    EXPECT_EQ(out[i].latency, s.plink(vl.phys).latency);
    if (i > 0) {
      EXPECT_LE(out[i - 1].window.begin, out[i].window.begin);
    }
  }
  ASSERT_EQ(topo.receivers(MachineId(0)).size(), 1u);
  EXPECT_EQ(topo.receivers(MachineId(1)).size(), 0u);
}

TEST(TopologyTest, OutDegreeCountsDistinctNeighbors) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 1000, kAlways)
                         .link(0, 1, 2000, kAlways)  // second parallel link
                         .link(0, 2, 1000, kAlways)
                         .build_unchecked();
  const Topology topo(s);
  EXPECT_EQ(topo.out_degree(MachineId(0)), 2);
  EXPECT_EQ(topo.out_degree(MachineId(1)), 0);
}

// Regression for the flat-vector out_degree rewrite: on generated scenarios
// the precomputed degrees must be identical to the old std::set-per-query
// computation, and the adjacency structure must be byte-identical to what a
// freshly built Topology reports (construction is deterministic).
TEST(TopologyTest, OutDegreeMatchesNaiveSetOnGeneratedScenarios) {
  const std::vector<Scenario> cases =
      generate_cases(GeneratorConfig::light(), 71, 4);
  for (const Scenario& s : cases) {
    const Topology topo(s);
    const Topology again(s);
    for (std::size_t m = 0; m < s.machine_count(); ++m) {
      const MachineId id(static_cast<std::int32_t>(m));
      std::set<std::int32_t> naive;
      for (const PhysicalLink& pl : s.phys_links) {
        if (pl.from == id) naive.insert(pl.to.value());
      }
      EXPECT_EQ(topo.out_degree(id), static_cast<std::int32_t>(naive.size()));
      EXPECT_EQ(again.out_degree(id), topo.out_degree(id));
      const auto out_a = topo.out_edges(id);
      const auto out_b = again.out_edges(id);
      ASSERT_EQ(out_a.size(), out_b.size());
      for (std::size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].link, out_b[i].link);
      }
      // Groups partition the out-edges by receiver, ascending, each once.
      std::size_t covered = 0;
      const auto groups = topo.receivers(id);
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (g > 0) {
          EXPECT_LT(groups[g - 1].to, groups[g].to);
        }
        for (const OutEdge& edge : topo.edges(groups[g])) {
          EXPECT_EQ(s.vlink_to(edge.link), groups[g].to);
          EXPECT_EQ(edge.link, out_a[covered].link);
          ++covered;
        }
      }
      EXPECT_EQ(covered, out_a.size());
    }
  }
}

TEST(TopologyTest, ChainIsNotStronglyConnected) {
  const Scenario s = testing::chain_scenario();
  EXPECT_FALSE(strongly_connected(s));
}

TEST(TopologyTest, CycleIsStronglyConnected) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 1000, kAlways)
                         .link(1, 2, 1000, kAlways)
                         .link(2, 0, 1000, kAlways)
                         .build_unchecked();
  EXPECT_TRUE(strongly_connected(s));
}

TEST(TopologyTest, TwoDisjointCyclesAreNotStronglyConnected) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 1000, kAlways)
                         .link(1, 0, 1000, kAlways)
                         .link(2, 3, 1000, kAlways)
                         .link(3, 2, 1000, kAlways)
                         .build_unchecked();
  EXPECT_FALSE(strongly_connected(s));
}

TEST(TopologyTest, SingleMachineIsStronglyConnected) {
  const Scenario s = ScenarioBuilder().machine(kGB).build_unchecked();
  EXPECT_TRUE(strongly_connected(s));
}

TEST(TopologyTest, ReachableButNotReturnable) {
  // 0 reaches everything, nothing returns to 0.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 1000, kAlways)
                         .link(0, 2, 1000, kAlways)
                         .link(1, 2, 1000, kAlways)
                         .build_unchecked();
  EXPECT_FALSE(strongly_connected(s));
}

}  // namespace
}  // namespace datastage
