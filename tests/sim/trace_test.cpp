#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;

StagingResult chain_result(const Scenario& s) {
  EngineOptions options;
  options.eu = EUWeights{1.0, 1.0};
  return run_spec({HeuristicKind::kPartial, CostCriterion::kC4}, s, options);
}

TEST(TraceTest, ScheduleTraceNamesEverything) {
  const Scenario s = testing::chain_scenario();
  const StagingResult result = chain_result(s);
  const std::string trace = schedule_trace(s, result.schedule);
  EXPECT_NE(trace.find("d0"), std::string::npos);
  EXPECT_NE(trace.find("M0 => M1"), std::string::npos);
  EXPECT_NE(trace.find("M1 => M2"), std::string::npos);
  // Sorted by start: the first hop appears before the second.
  EXPECT_LT(trace.find("M0 => M1"), trace.find("M1 => M2"));
}

TEST(TraceTest, StorageSummaryRowsPerMachine) {
  const Scenario s = testing::chain_scenario();
  const StagingResult result = chain_result(s);
  const Table table = storage_summary(s, result.schedule);
  EXPECT_EQ(table.rows(), s.machine_count());
  const std::string text = table.to_text();
  EXPECT_NE(text.find("M1"), std::string::npos);
  EXPECT_NE(text.find("peak usage"), std::string::npos);
}

TEST(TraceTest, LinkUtilizationReflectsBusyTime) {
  const Scenario s = testing::chain_scenario();
  const StagingResult result = chain_result(s);
  const Table table = link_utilization(s, result.schedule);
  EXPECT_EQ(table.rows(), s.phys_links.size());
  const std::string csv = table.to_csv();
  // Each link: window 120 min, busy 1 s ≈ 0.0 min -> utilization 0.0%.
  EXPECT_NE(csv.find("M0->M1,120.0,0.0,0.0"), std::string::npos);
}

TEST(TraceTest, LinkGanttMarksWindowsAndTransfers) {
  const Scenario s = testing::chain_scenario();
  const StagingResult result = chain_result(s);
  const std::string gantt = link_gantt(s, result.schedule, 24);
  // Two link rows plus the time axis.
  EXPECT_NE(gantt.find("M0->M1"), std::string::npos);
  EXPECT_NE(gantt.find("M1->M2"), std::string::npos);
  // Links are open for the whole horizon, so rows contain '-'; the 1 s
  // transfers land in the first bucket as '#'.
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find('-'), std::string::npos);
  // The first column of each link row is busy (transfer starts at t=0..1s).
  const auto row_start = gantt.find('|');
  ASSERT_NE(row_start, std::string::npos);
  EXPECT_EQ(gantt[row_start + 1], '#');
}

TEST(TraceTest, LinkGanttShowsClosedWindowsAsDots) {
  const Scenario s = testing::ScenarioBuilder()
                         .machine(1 << 30).machine(1 << 30)
                         .link(0, 1, 8'000'000, Interval{at_min(60), at_min(120)})
                         .item(1'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(90))
                         .build();
  const std::string gantt = link_gantt(s, Schedule{}, 10);
  // First half of the horizon is unavailable: dots, then dashes.
  EXPECT_NE(gantt.find("|.....-----|"), std::string::npos);
}

TEST(TraceTest, RequestReportStatuses) {
  const Scenario s = testing::chain_scenario();
  // Unserved (empty schedule).
  {
    OutcomeMatrix outcomes(1);
    outcomes[0].resize(1);
    const std::string csv = request_report(s, outcomes).to_csv();
    EXPECT_NE(csv.find("unserved"), std::string::npos);
  }
  // Satisfied.
  {
    const StagingResult result = chain_result(s);
    const std::string csv = request_report(s, result.outcomes).to_csv();
    EXPECT_NE(csv.find("satisfied"), std::string::npos);
    EXPECT_NE(csv.find("high"), std::string::npos);
  }
  // Late.
  {
    OutcomeMatrix outcomes(1);
    outcomes[0].push_back(RequestOutcome{false, at_min(90)});
    const std::string csv = request_report(s, outcomes).to_csv();
    EXPECT_NE(csv.find("late"), std::string::npos);
  }
}

}  // namespace
}  // namespace datastage
