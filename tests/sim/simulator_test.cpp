#include "sim/simulator.hpp"

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

// A valid two-hop schedule for the chain fixture.
Schedule chain_schedule() {
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  schedule.add(CommStep{ItemId(0), MachineId(1), MachineId(2), VirtLinkId(1),
                        at_sec(1), at_sec(2)});
  return schedule;
}

TEST(SimulatorTest, EmptyScheduleIsClean) {
  const SimReport report = simulate(testing::chain_scenario(), Schedule{});
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.transfers, 0u);
  EXPECT_FALSE(report.outcomes[0][0].satisfied);
}

TEST(SimulatorTest, ValidScheduleSatisfiesRequest) {
  const SimReport report = simulate(testing::chain_scenario(), chain_schedule());
  ASSERT_TRUE(report.ok) << report.issues.front();
  EXPECT_TRUE(report.outcomes[0][0].satisfied);
  EXPECT_EQ(report.outcomes[0][0].arrival, at_sec(2));
  EXPECT_EQ(report.completion, at_sec(2));
  EXPECT_EQ(report.transfers, 2u);
  // Peak usage observed on the intermediate machine.
  EXPECT_EQ(report.peak_usage[1], 1'000'000);
}

TEST(SimulatorTest, DetectsDurationMismatch) {
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(3)});  // should be 1 s
  const SimReport report = simulate(testing::chain_scenario(), schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("duration mismatch"), std::string::npos);
}

TEST(SimulatorTest, DetectsWindowViolation) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, Interval{at_min(10), at_min(20)})
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});  // before window opens
  const SimReport report = simulate(s, schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("window"), std::string::npos);
}

TEST(SimulatorTest, DetectsLinkOverlap) {
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
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  schedule.add(CommStep{ItemId(1), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero() + SimDuration::milliseconds(500),
                        at_sec(1) + SimDuration::milliseconds(500)});
  const SimReport report = simulate(s, schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("overlaps"), std::string::npos);
}

TEST(SimulatorTest, DetectsSenderWithoutData) {
  Schedule schedule;
  // B sends to C without ever receiving the item.
  schedule.add(CommStep{ItemId(0), MachineId(1), MachineId(2), VirtLinkId(1),
                        SimTime::zero(), at_sec(1)});
  const SimReport report = simulate(testing::chain_scenario(), schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("sender does not hold"), std::string::npos);
}

TEST(SimulatorTest, DetectsSenderNotYetAvailable) {
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  // Second hop departs at 0.5 s, but the relay only has the data at 1 s.
  schedule.add(CommStep{ItemId(0), MachineId(1), MachineId(2), VirtLinkId(1),
                        SimTime::zero() + SimDuration::milliseconds(500),
                        at_sec(1) + SimDuration::milliseconds(500)});
  const SimReport report = simulate(testing::chain_scenario(), schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("sender does not hold"), std::string::npos);
}

TEST(SimulatorTest, DetectsStorageOverflow) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB)
                         .machine(1'500'000)  // fits one item, not two
                         .link(0, 1, 8'000'000, kAlways)
                         .link(0, 1, 8'000'000, kAlways)  // parallel link
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  schedule.add(CommStep{ItemId(1), MachineId(0), MachineId(1), VirtLinkId(1),
                        SimTime::zero(), at_sec(1)});
  const SimReport report = simulate(s, schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("capacity"), std::string::npos);
}

TEST(SimulatorTest, DetectsGarbageCollectedSender) {
  // The relay's copy is garbage-collected at deadline+γ; a transfer departing
  // after that must be flagged.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(1, 2, 8'000'000, kAlways)
                         .gamma(SimDuration::minutes(6))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(10))
                         .build();
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  // gc at 16 min; departure at 20 min is invalid.
  schedule.add(CommStep{ItemId(0), MachineId(1), MachineId(2), VirtLinkId(1),
                        at_min(20), at_min(20) + SimDuration::seconds(1)});
  const SimReport report = simulate(s, schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("garbage-collected"), std::string::npos);
}

TEST(SimulatorTest, DetectsOutOfRangeIds) {
  Schedule schedule;
  schedule.add(CommStep{ItemId(7), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  const SimReport report = simulate(testing::chain_scenario(), schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("out of range"), std::string::npos);
}

TEST(SimulatorTest, DetectsEndpointMismatch) {
  Schedule schedule;
  // Claims to move A->C but names the A->B link.
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(2), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  const SimReport report = simulate(testing::chain_scenario(), schedule);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.issues.front().find("endpoints disagree"), std::string::npos);
}

TEST(SimulatorTest, LateDeliveryIsCleanButUnsatisfied) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_sec(1))  // deadline before arrival below
                         .build();
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        at_min(5), at_min(5) + SimDuration::seconds(1)});
  const SimReport report = simulate(s, schedule);
  ASSERT_TRUE(report.ok) << report.issues.front();  // legal, just late
  EXPECT_FALSE(report.outcomes[0][0].satisfied);
  EXPECT_EQ(report.outcomes[0][0].arrival, at_min(5) + SimDuration::seconds(1));
}

TEST(SimulatorTest, AgreesWithHeuristicOnChain) {
  const Scenario s = testing::chain_scenario();
  EngineOptions options;
  options.eu = EUWeights{1.0, 1.0};
  const StagingResult result = run_spec({HeuristicKind::kPartial, CostCriterion::kC4}, s, options);
  const SimReport report = simulate(s, result.schedule);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.outcomes, result.outcomes);
}

}  // namespace
}  // namespace datastage
