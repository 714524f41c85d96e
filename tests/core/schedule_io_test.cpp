#include "core/schedule_io.hpp"

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_sec;

Schedule sample_schedule() {
  Schedule schedule;
  schedule.add(CommStep{ItemId(0), MachineId(0), MachineId(1), VirtLinkId(0),
                        SimTime::zero(), at_sec(1)});
  schedule.add(CommStep{ItemId(0), MachineId(1), MachineId(2), VirtLinkId(1),
                        at_sec(1), at_sec(2)});
  return schedule;
}

TEST(ScheduleIoTest, RoundTrip) {
  const Schedule original = sample_schedule();
  std::string error;
  const auto parsed = schedule_from_string(schedule_to_string(original), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), original.size());
  EXPECT_TRUE(std::equal(parsed->steps().begin(), parsed->steps().end(),
                         original.steps().begin()));
}

TEST(ScheduleIoTest, EmptyScheduleRoundTrips) {
  std::string error;
  const auto parsed = schedule_from_string(schedule_to_string(Schedule{}), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->empty());
}

TEST(ScheduleIoTest, CommentsIgnored) {
  std::string text = schedule_to_string(sample_schedule());
  text += "# trailing comment\n\n";
  std::string error;
  const auto parsed = schedule_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), 2u);
}

TEST(ScheduleIoTest, RejectsBadHeader) {
  std::string error;
  EXPECT_FALSE(schedule_from_string("bogus v1\n", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(ScheduleIoTest, RejectsMalformedStep) {
  std::string error;
  EXPECT_FALSE(
      schedule_from_string("datastage-schedule v1\nstep 0 1\n", &error).has_value());
  EXPECT_NE(error.find("expected: step"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ScheduleIoTest, RejectsPartlyNumericField) {
  std::string error;
  EXPECT_FALSE(schedule_from_string("datastage-schedule v1\nstep 0 1 2 3 100 200x\n",
                                    &error)
                   .has_value());
  EXPECT_NE(error.find("malformed"), std::string::npos);
  EXPECT_NE(error.find("200x"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ScheduleIoTest, RejectsTrailingToken) {
  std::string error;
  EXPECT_FALSE(schedule_from_string(
                   "datastage-schedule v1\nstep 0 1 2 3 100 200 trailing junk\n", &error)
                   .has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(ScheduleIoTest, CommentBeforeHeaderAccepted) {
  const std::string text = "# saved plan\n\n" + schedule_to_string(sample_schedule());
  std::string error;
  const auto parsed = schedule_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), 2u);
}

TEST(ScheduleIoTest, RejectsArrivalBeforeStart) {
  std::string error;
  EXPECT_FALSE(schedule_from_string(
                   "datastage-schedule v1\nstep 0 0 1 0 100 50\n", &error)
                   .has_value());
  EXPECT_NE(error.find("arrival precedes start"), std::string::npos);
}

TEST(ScheduleIoTest, SavedScheduleReplaysIdentically) {
  const Scenario s = testing::chain_scenario();
  EngineOptions options;
  options.eu = EUWeights{1.0, 1.0};
  const StagingResult result = run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, s, options);

  const std::string path = ::testing::TempDir() + "/schedule_io_test.dss";
  save_schedule(path, result.schedule);
  std::string error;
  const auto loaded = load_schedule(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  const SimReport replay = simulate(s, *loaded);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.outcomes, result.outcomes);
}

TEST(ScheduleIoTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(load_schedule("/no/such/file.dss", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace datastage
