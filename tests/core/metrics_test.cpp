#include "core/metrics.hpp"

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

Scenario mixed_scenario() {
  return ScenarioBuilder()
      .machine(kGB).machine(kGB).machine(kGB)
      .link(0, 1, 8'000'000, kAlways)
      .link(0, 2, 10'000, kAlways)  // hopeless for the big item
      .item(1'000'000)
      .source(0, SimTime::zero())
      .request(1, at_min(10), kPriorityHigh)
      .item(100 * 1024 * 1024)
      .source(0, SimTime::zero())
      .request(2, at_min(10), kPriorityLow)
      .build();
}

TEST(MetricsTest, ComputesSatisfactionAndQuality) {
  const Scenario s = mixed_scenario();
  EngineOptions options;
  options.eu = EUWeights{1.0, 1.0};
  const StagingResult result = run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, s, options);
  const ResultMetrics m =
      compute_metrics(s, PriorityWeighting::w_1_10_100(), result);

  EXPECT_EQ(m.total_requests, 2u);
  EXPECT_EQ(m.satisfied, 1u);
  EXPECT_DOUBLE_EQ(m.weighted_value, 100.0);
  EXPECT_DOUBLE_EQ(m.weighted_total, 101.0);
  ASSERT_EQ(m.satisfied_per_class.size(), 3u);
  EXPECT_EQ(m.satisfied_per_class[2], 1u);
  EXPECT_EQ(m.satisfied_per_class[0], 0u);
  EXPECT_EQ(m.total_per_class[0], 1u);

  // The 1 MB item arrives after 1 s: slack = 10 min − 1 s, response = 1 s.
  EXPECT_DOUBLE_EQ(m.mean_slack_seconds, 600.0 - 1.0);
  EXPECT_DOUBLE_EQ(m.min_slack_seconds, 600.0 - 1.0);
  EXPECT_DOUBLE_EQ(m.mean_response_seconds, 1.0);
  EXPECT_EQ(m.makespan, at_sec(1));

  EXPECT_EQ(m.transfers, 1u);
  EXPECT_DOUBLE_EQ(m.transfers_per_satisfied, 1.0);
  EXPECT_EQ(m.total_link_time, SimDuration::seconds(1));
  EXPECT_NEAR(m.satisfied_fraction(), 0.5, 1e-12);
  EXPECT_NEAR(m.value_fraction(), 100.0 / 101.0, 1e-12);
}

TEST(MetricsTest, EmptyResultIsAllZeros) {
  const Scenario s = mixed_scenario();
  StagingResult empty;
  empty.outcomes.resize(s.item_count());
  for (std::size_t i = 0; i < s.item_count(); ++i) {
    empty.outcomes[i].resize(s.items[i].requests.size());
  }
  const ResultMetrics m = compute_metrics(s, PriorityWeighting::w_1_10_100(), empty);
  EXPECT_EQ(m.satisfied, 0u);
  EXPECT_DOUBLE_EQ(m.weighted_value, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_slack_seconds, 0.0);
  EXPECT_EQ(m.makespan, SimTime::zero());
  EXPECT_DOUBLE_EQ(m.satisfied_fraction(), 0.0);
}

TEST(MetricsTest, TableRendersKeyRows) {
  const Scenario s = mixed_scenario();
  EngineOptions options;
  options.eu = EUWeights{1.0, 1.0};
  const StagingResult result = run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, s, options);
  const Table table =
      metrics_table(compute_metrics(s, PriorityWeighting::w_1_10_100(), result));
  const std::string text = table.to_text();
  EXPECT_NE(text.find("requests satisfied"), std::string::npos);
  EXPECT_NE(text.find("1 / 2"), std::string::npos);
  EXPECT_NE(text.find("satisfied high"), std::string::npos);
  EXPECT_NE(text.find("mean slack"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
}

}  // namespace
}  // namespace datastage
