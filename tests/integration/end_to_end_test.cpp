// End-to-end scenarios exercising the whole pipeline: generator -> scheduler
// -> simulator -> metrics, including parameterized sweeps over all
// heuristic/criterion pairs and E-U ratios.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "model/scenario_io.hpp"
#include "sim/simulator.hpp"

namespace datastage {
namespace {

const Scenario& shared_scenario() {
  static const Scenario scenario = [] {
    GeneratorConfig config;
    config.min_machines = 10;
    config.max_machines = 10;
    config.min_requests_per_machine = 8;
    config.max_requests_per_machine = 10;
    Rng rng(31415);
    return generate_scenario(config, rng);
  }();
  return scenario;
}

// ---------------------------------------------------------------------------
// Parameterized: every admissible pair at every representative E-U ratio must
// produce a schedule that replays cleanly and whose value sits within bounds.
// ---------------------------------------------------------------------------
struct PairRatioCase {
  SchedulerSpec spec;
  double log10_ratio;
};

std::string case_name(const ::testing::TestParamInfo<PairRatioCase>& info) {
  std::string name = info.param.spec.name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  if (std::isinf(info.param.log10_ratio)) {
    name += info.param.log10_ratio > 0 ? "_ratio_pinf" : "_ratio_ninf";
  } else {
    name += "_ratio_" + std::to_string(static_cast<int>(info.param.log10_ratio) + 10);
  }
  return name;
}

std::vector<PairRatioCase> all_pair_ratio_cases() {
  std::vector<PairRatioCase> cases;
  const std::vector<double> ratios{-std::numeric_limits<double>::infinity(), -2.0,
                                   0.0, 2.0, 5.0,
                                   std::numeric_limits<double>::infinity()};
  for (const SchedulerSpec& spec : paper_pairs()) {
    for (const double ratio : ratios) {
      cases.push_back({spec, ratio});
    }
  }
  return cases;
}

class PairRatioTest : public ::testing::TestWithParam<PairRatioCase> {};

TEST_P(PairRatioTest, SchedulesCleanlyWithinBounds) {
  const Scenario& scenario = shared_scenario();
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  static const BoundsReport bounds = compute_bounds(scenario, weighting);

  EngineOptions options;
  options.weighting = weighting;
  options.eu = EUWeights::from_log10_ratio(GetParam().log10_ratio);
  const StagingResult result = run_spec(GetParam().spec, scenario, options);

  const SimReport report = simulate(scenario, result.schedule);
  ASSERT_TRUE(report.ok) << report.issues.front();
  EXPECT_EQ(report.outcomes, result.outcomes);

  const double value = weighted_value(scenario, weighting, result.outcomes);
  EXPECT_GE(value, 0.0);
  EXPECT_LE(value, bounds.possible_satisfy + 1e-9);
  // Every schedule the cost-guided heuristics emit should satisfy something
  // on this (satisfiable-rich) scenario.
  EXPECT_GT(satisfied_count(result.outcomes), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPairsAllRatios, PairRatioTest,
                         ::testing::ValuesIn(all_pair_ratio_cases()), case_name);

// ---------------------------------------------------------------------------
// Parameterized: generator seeds. The full pipeline must hold its invariants
// on structurally different scenarios.
// ---------------------------------------------------------------------------
class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, PipelineInvariantsHold) {
  GeneratorConfig config;
  config.min_requests_per_machine = 5;
  config.max_requests_per_machine = 8;
  Rng rng(GetParam());
  const Scenario scenario = generate_scenario(config, rng);
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  const BoundsReport bounds = compute_bounds(scenario, weighting);

  EngineOptions options;
  options.weighting = weighting;
  options.eu = EUWeights::from_log10_ratio(1.0);
  const StagingResult result =
      run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, scenario, options);

  const SimReport report = simulate(scenario, result.schedule);
  ASSERT_TRUE(report.ok) << report.issues.front();
  EXPECT_EQ(report.outcomes, result.outcomes);
  EXPECT_LE(weighted_value(scenario, weighting, result.outcomes),
            bounds.possible_satisfy + 1e-9);

  // Cost-guided scheduling beats the random-choice lower bound on every
  // seed tested (the paper's Figure 2 ordering; deterministic given seeds).
  Rng baseline_rng(GetParam() + 1000);
  const StagingResult random =
      run_random_dijkstra(scenario, weighting, baseline_rng);
  EXPECT_GE(weighted_value(scenario, weighting, result.outcomes),
            weighted_value(scenario, weighting, random.outcomes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Serialization round trip composes with scheduling: a reloaded scenario
// produces the identical schedule.
// ---------------------------------------------------------------------------
TEST(EndToEndTest, ScheduleSurvivesSerializationRoundTrip) {
  const Scenario& original = shared_scenario();
  std::string error;
  const auto reloaded = scenario_from_string(scenario_to_string(original), &error);
  ASSERT_TRUE(reloaded.has_value()) << error;

  EngineOptions options;
  options.eu = EUWeights::from_log10_ratio(1.0);
  const StagingResult a =
      run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, original, options);
  const StagingResult b =
      run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, *reloaded, options);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  EXPECT_TRUE(std::equal(a.schedule.steps().begin(), a.schedule.steps().end(),
                         b.schedule.steps().begin()));
  EXPECT_EQ(a.outcomes, b.outcomes);
}

// The §5.2 ordering: re-running Dijkstra with updated state (random_Dijkstra)
// beats the one-shot variant (single_Dij_random) on average.
TEST(EndToEndTest, RandomDijkstraBeatsSingleDijkstraOnAverage) {
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  double random_total = 0.0;
  double single_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    GeneratorConfig config;
    config.min_requests_per_machine = 6;
    config.max_requests_per_machine = 8;
    Rng gen_rng(seed);
    const Scenario scenario = generate_scenario(config, gen_rng);
    Rng r1(seed * 17);
    Rng r2(seed * 31);
    random_total += weighted_value(
        scenario, weighting,
        run_random_dijkstra(scenario, weighting, r1).outcomes);
    single_total += weighted_value(
        scenario, weighting,
        run_single_dijkstra_random(scenario, weighting, r2).outcomes);
  }
  EXPECT_GT(random_total, single_total);
}

}  // namespace
}  // namespace datastage
