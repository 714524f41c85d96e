#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

EngineOptions c4_options() {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights{1.0, 1.0};
  return options;
}

TEST(StagingEngineTest, CandidatesForChain) {
  const Scenario s = testing::chain_scenario();
  StagingEngine engine(s, c4_options());
  const auto candidates = engine.all_candidates();
  ASSERT_EQ(candidates.size(), 1u);
  const Candidate& c = candidates.front();
  EXPECT_EQ(c.item, ItemId(0));
  EXPECT_EQ(c.hop.from, MachineId(0));
  EXPECT_EQ(c.hop.to, MachineId(1));
  ASSERT_EQ(c.dests.size(), 1u);
  EXPECT_TRUE(c.dests[0].sat);
  // Slack: deadline 30 min − arrival 2 s.
  EXPECT_DOUBLE_EQ(c.dests[0].slack_seconds, 30.0 * 60.0 - 2.0);
}

TEST(StagingEngineTest, PerDestinationCriterionSplitsCandidates) {
  // Two destinations behind the same first hop: C1 yields two candidates,
  // C4 groups them into one.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(1, 2, 8'000'000, kAlways)
                         .link(1, 3, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(30))
                         .request(3, at_min(40))
                         .build();
  EngineOptions c1 = c4_options();
  c1.criterion = CostCriterion::kC1;
  StagingEngine engine_c1(s, c1);
  EXPECT_EQ(engine_c1.all_candidates().size(), 2u);

  StagingEngine engine_c4(s, c4_options());
  const auto grouped = engine_c4.all_candidates();
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped.front().dests.size(), 2u);
}

TEST(StagingEngineTest, BestCandidatePicksLowestCost) {
  // Item 1 has higher priority: with priority-dominant weights it must win.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30), kPriorityLow)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30), kPriorityHigh)
                         .build();
  EngineOptions options = c4_options();
  options.eu = EUWeights::priority_only();
  StagingEngine engine(s, options);
  const auto best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->item, ItemId(1));
}

TEST(StagingEngineTest, ApplyHopCreatesStepAndAdvances) {
  const Scenario s = testing::chain_scenario();
  StagingEngine engine(s, c4_options());
  auto best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  engine.apply_hop(*best);
  EXPECT_EQ(engine.counts().iterations, 1u);
  EXPECT_EQ(engine.network().transfer_count(), 1u);
  EXPECT_EQ(engine.tracker().pending_count(), 1u);  // not at dest yet

  best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->hop.from, MachineId(1));  // second hop from the new copy
  engine.apply_hop(*best);
  EXPECT_FALSE(engine.best_candidate().has_value());  // all satisfied
  const StagingResult result = engine.finish();
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_EQ(result.schedule.size(), 2u);
}

TEST(StagingEngineTest, NoCandidatesWhenNothingSatisfiable) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 10'000, kAlways)  // ~22 h for 100 MB
                         .item(100 * 1024 * 1024)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  StagingEngine engine(s, c4_options());
  EXPECT_FALSE(engine.best_candidate().has_value());
  EXPECT_TRUE(engine.all_candidates().empty());
}

TEST(StagingEngineTest, CacheSkipsUnaffectedItems) {
  // Two items on disjoint links: scheduling one must not recompute the other.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(0, 2, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(30))
                         .build();
  StagingEngine engine(s, c4_options());
  auto best = engine.best_candidate();  // computes both plans (2 runs)
  ASSERT_TRUE(best.has_value());
  const std::size_t runs_before = engine.counts().dijkstra_runs;
  EXPECT_EQ(runs_before, 2u);
  engine.apply_hop(*best);  // satisfies one item on its own link
  best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  // Only the scheduled item was dirty, and it is exhausted now; the other
  // item's plan must have been reused.
  EXPECT_EQ(engine.counts().dijkstra_runs, runs_before);
}

TEST(StagingEngineTest, ConflictingItemsAreInvalidated) {
  // Two items share the single link: scheduling one shifts the other.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  StagingEngine engine(s, c4_options());
  auto best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  engine.apply_hop(*best);
  best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  // The second item's transfer must start after the first releases the link.
  EXPECT_EQ(best->hop.start, at_sec(1));
  engine.apply_hop(*best);
  const StagingResult result = engine.finish();
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_TRUE(result.outcomes[1][0].satisfied);
}

TEST(StagingEngineTest, ParanoidModeMatchesOnChain) {
  const Scenario s = testing::chain_scenario();
  EngineOptions lazy = c4_options();
  EngineOptions paranoid = c4_options();
  paranoid.paranoid = true;

  StagingEngine a(s, lazy);
  StagingEngine b(s, paranoid);
  while (true) {
    const auto ca = a.best_candidate();
    const auto cb = b.best_candidate();
    ASSERT_EQ(ca.has_value(), cb.has_value());
    if (!ca.has_value()) break;
    EXPECT_EQ(ca->hop, cb->hop);
    a.apply_hop(*ca);
    b.apply_hop(*cb);
  }
}

TEST(StagingEngineTest, IterationGuardStopsLoop) {
  const Scenario s = testing::chain_scenario();
  EngineOptions options = c4_options();
  options.max_iterations = 1;
  StagingEngine engine(s, options);
  const auto best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  engine.apply_hop(*best);
  EXPECT_TRUE(engine.guard_tripped());
  EXPECT_FALSE(engine.best_candidate().has_value());
}

TEST(StagingEngineTest, PlanTreeExposesRouting) {
  const Scenario s = testing::chain_scenario();
  StagingEngine engine(s, c4_options());
  const RouteTree& tree = engine.plan_tree(ItemId(0));
  EXPECT_EQ(tree.arrival(MachineId(2)), at_sec(2));
}

TEST(StagingEngineTest, RetiredPlanReleasesItsTree) {
  const Scenario s = testing::chain_scenario();
  StagingEngine engine(s, c4_options());
  EXPECT_GT(engine.plan_tree(ItemId(0)).labeled_count(), 0u);
  while (const auto best = engine.best_candidate()) engine.apply_hop(*best);
  EXPECT_FALSE(engine.tracker().any_pending(ItemId(0)));
  EXPECT_EQ(engine.plan_tree(ItemId(0)).labeled_count(), 0u);
}

}  // namespace
}  // namespace datastage
