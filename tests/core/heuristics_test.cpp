#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

EngineOptions options_with(CostCriterion criterion,
                           EUWeights eu = EUWeights{1.0, 1.0}) {
  EngineOptions options;
  options.criterion = criterion;
  options.eu = eu;
  return options;
}

/// The pair of `kind` and the options' criterion.
StagingResult run(HeuristicKind kind, const Scenario& s, const EngineOptions& options) {
  return run_spec({kind, options.criterion}, s, options);
}

TEST(PartialPathTest, DeliversSingleRequestOnChain) {
  const Scenario s = testing::chain_scenario();
  const StagingResult result = run(HeuristicKind::kPartial, s, options_with(CostCriterion::kC4));
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_EQ(result.outcomes[0][0].arrival, at_sec(2));
  EXPECT_EQ(result.schedule.size(), 2u);  // two hops
  EXPECT_GE(result.iterations, 2u);
}

TEST(PartialPathTest, UnreachableDeadlineGetsNoResources) {
  // 100 MB over 10 Kbit/s takes ~22 h; the 30-minute deadline is hopeless.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 10'000, kAlways)
                         .item(100 * 1024 * 1024)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  const StagingResult result = run(HeuristicKind::kPartial, s, options_with(CostCriterion::kC4));
  EXPECT_FALSE(result.outcomes[0][0].satisfied);
  EXPECT_TRUE(result.schedule.empty());  // Sat == 0: the data does not move
}

TEST(PartialPathTest, HigherPriorityWinsLinkContention) {
  // Two items compete for one link window that can carry only one of them in
  // time. With +inf E-U ratio (priority only), the high-priority item wins.
  const Scenario s =
      ScenarioBuilder()
          .machine(kGB).machine(kGB)
          // 1 MB at 8 Mbit/s takes 1 s; window fits one transfer before the
          // tight deadlines.
          .link(0, 1, 8'000'000, Interval{SimTime::zero(), at_sec(2)})
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_sec(1), kPriorityLow)
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_sec(1), kPriorityHigh)
          .build();
  const StagingResult result =
      run(HeuristicKind::kPartial, s, options_with(CostCriterion::kC1, EUWeights::priority_only()));
  EXPECT_FALSE(result.outcomes[0][0].satisfied);
  EXPECT_TRUE(result.outcomes[1][0].satisfied);
}

TEST(PartialPathTest, UrgencyOnlyPrefersTighterDeadline) {
  // The window fits only one 1 s transfer (it closes at 1.5 s).
  const Scenario s =
      ScenarioBuilder()
          .machine(kGB).machine(kGB)
          .link(0, 1, 8'000'000,
                Interval{SimTime::zero(), at_sec(1) + SimDuration::milliseconds(500)})
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_min(30), kPriorityHigh)  // loose deadline, high prio
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_sec(1), kPriorityLow)  // tight deadline, low prio
          .build();
  const StagingResult result =
      run(HeuristicKind::kPartial, s, options_with(CostCriterion::kC1, EUWeights::urgency_only()));
  // Urgency-only schedules the tight request first; the loose one becomes
  // unsatisfiable because the window closes.
  EXPECT_TRUE(result.outcomes[1][0].satisfied);
  EXPECT_FALSE(result.outcomes[0][0].satisfied);
}

TEST(FullPathOneTest, CompletesWholePathPerIteration) {
  const Scenario s = testing::chain_scenario();
  const StagingResult result = run(HeuristicKind::kFullOne, s, options_with(CostCriterion::kC4));
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_EQ(result.schedule.size(), 2u);
  EXPECT_EQ(result.iterations, 1u);  // one decision schedules both hops
}

TEST(FullPathAllTest, ServesAllDestinationsSharingFirstHop) {
  // One source, two destinations behind the same intermediate.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(1, 2, 8'000'000, kAlways)
                         .link(1, 3, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(30))
                         .request(3, at_min(30))
                         .build();
  const StagingResult result = run(HeuristicKind::kFullAll, s, options_with(CostCriterion::kC4));
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_TRUE(result.outcomes[0][1].satisfied);
  // Shared hop 0->1 scheduled once, then 1->2 and 1->3: three steps total in
  // a single iteration.
  EXPECT_EQ(result.schedule.size(), 3u);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(FullPathAllTest, RejectsPerDestinationCriterion) {
  const Scenario s = testing::chain_scenario();
  StagingEngine engine(s, options_with(CostCriterion::kC1));
  EXPECT_DEATH(run_heuristic(HeuristicKind::kFullAll, engine), "aggregate");
}

TEST(IntermediateDeliveryTest, PathThroughDestinationSatisfiesIt) {
  // C requests the item and also lies on the only path to D: one pass should
  // satisfy both requests.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(1, 2, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .request(2, at_min(30))
                         .build();
  const StagingResult result = run(HeuristicKind::kFullAll, s, options_with(CostCriterion::kC4));
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_TRUE(result.outcomes[0][1].satisfied);
  EXPECT_EQ(result.schedule.size(), 2u);
}

TEST(SingleDijkstraRandomTest, DeliversOnUncontendedChain) {
  const Scenario s = testing::chain_scenario();
  Rng rng(7);
  const StagingResult result =
      run_single_dijkstra_random(s, PriorityWeighting::w_1_10_100(), rng);
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_EQ(result.dijkstra_runs, 1u);
}

TEST(RandomDijkstraTest, DeliversOnUncontendedChain) {
  const Scenario s = testing::chain_scenario();
  Rng rng(7);
  const StagingResult result =
      run_random_dijkstra(s, PriorityWeighting::w_1_10_100(), rng);
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
}

TEST(EarliestDeadlineFirstTest, SchedulesByAbsoluteDeadline) {
  // The window fits one transfer; the later-arriving but earlier-deadline
  // request must win regardless of priority.
  const Scenario s =
      ScenarioBuilder()
          .machine(kGB).machine(kGB)
          .link(0, 1, 8'000'000,
                Interval{SimTime::zero(), at_sec(1) + SimDuration::milliseconds(500)})
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_min(20), kPriorityHigh)  // later deadline, high prio
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_sec(1), kPriorityLow)  // earliest deadline
          .build();
  const StagingResult result =
      run_earliest_deadline_first(s, PriorityWeighting::w_1_10_100());
  EXPECT_TRUE(result.outcomes[1][0].satisfied);
  EXPECT_FALSE(result.outcomes[0][0].satisfied);
}

TEST(EarliestDeadlineFirstTest, DeliversEverythingWhenUncontended) {
  const Scenario s = testing::chain_scenario();
  const StagingResult result =
      run_earliest_deadline_first(s, PriorityWeighting::w_1_10_100());
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
}

TEST(PriorityFirstTest, SchedulesStrictlyByClass) {
  // Same contention fixture as HigherPriorityWinsLinkContention: the
  // priority-first scheme must pick the high-priority request.
  const Scenario s =
      ScenarioBuilder()
          .machine(kGB).machine(kGB)
          .link(0, 1, 8'000'000, Interval{SimTime::zero(), at_sec(2)})
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_sec(1), kPriorityLow)
          .item(1'000'000)
          .source(0, SimTime::zero())
          .request(1, at_sec(1), kPriorityHigh)
          .build();
  const StagingResult result =
      run_priority_first(s, PriorityWeighting::w_1_10_100());
  EXPECT_FALSE(result.outcomes[0][0].satisfied);
  EXPECT_TRUE(result.outcomes[1][0].satisfied);
}

}  // namespace
}  // namespace datastage
