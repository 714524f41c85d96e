// Seed-grid equivalence suite for the incremental engine (PR: inverted
// resource index + lazy best-candidate heap + Dijkstra workspace reuse).
//
// The engine's incremental mode must be *indistinguishable* from the paper's
// recompute-everything procedure (--paranoid) in every observable output:
// the schedule bytes, the per-request outcomes, and the derived result
// metrics — across all four heuristics and a grid of generated scenarios.
// Separately, the parallel executor must produce byte-identical case results
// for --jobs=1 and --jobs=8.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/heuristics.hpp"
#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "core/schedule_io.hpp"
#include "gen/generator.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "obs/observer.hpp"

namespace datastage {
namespace {

std::vector<Scenario> grid_scenarios() {
  // Light cases stress retirement and sparse contention; one paper-shaped
  // case stresses dense contention where invalidations actually fire; two
  // huge-preset-shaped cases have storage to spare, where the committed
  // item's tree is repaired instead of recomputed.
  std::vector<Scenario> scenarios =
      generate_cases(GeneratorConfig::light(), 4242, 4);
  std::vector<Scenario> paper = generate_cases(GeneratorConfig::paper(), 77, 1);
  scenarios.insert(scenarios.end(), paper.begin(), paper.end());
  GeneratorConfig huge_shape = GeneratorConfig::huge();
  huge_shape.min_machines = huge_shape.max_machines = 12;
  huge_shape.min_requests_per_machine = huge_shape.max_requests_per_machine = 10;
  std::vector<Scenario> huge = generate_cases(huge_shape, 5150, 2);
  scenarios.insert(scenarios.end(), huge.begin(), huge.end());
  return scenarios;
}

std::string outcomes_to_string(const StagingResult& result) {
  std::ostringstream os;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    for (std::size_t k = 0; k < result.outcomes[i].size(); ++k) {
      const RequestOutcome& o = result.outcomes[i][k];
      os << i << "," << k << "," << o.satisfied << ","
         << (o.arrival.is_infinite() ? -1 : o.arrival.usec()) << "\n";
    }
  }
  return os.str();
}

std::string metrics_to_string(const Scenario& scenario, const StagingResult& result) {
  const ResultMetrics metrics =
      compute_metrics(scenario, PriorityWeighting::w_1_10_100(), result);
  return metrics_table(metrics).to_csv();
}

void expect_equivalent(const Scenario& scenario, const StagingResult& incremental,
                       const StagingResult& paranoid, const std::string& label) {
  EXPECT_EQ(schedule_to_string(incremental.schedule),
            schedule_to_string(paranoid.schedule))
      << label;
  EXPECT_EQ(outcomes_to_string(incremental), outcomes_to_string(paranoid)) << label;
  EXPECT_EQ(metrics_to_string(scenario, incremental),
            metrics_to_string(scenario, paranoid))
      << label;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<SchedulerSpec> {};

TEST_P(EngineEquivalenceTest, IncrementalMatchesParanoidOnSeedGrid) {
  const SchedulerSpec spec = GetParam();
  std::size_t case_index = 0;
  for (const Scenario& scenario : grid_scenarios()) {
    EngineOptions options;
    options.criterion = spec.criterion;
    options.eu = EUWeights::from_log10_ratio(1.0);
    const StagingResult incremental = run_spec(spec, scenario, options);
    options.paranoid = true;
    const StagingResult paranoid = run_spec(spec, scenario, options);
    expect_equivalent(scenario, incremental, paranoid,
                      spec.name() + " case " + std::to_string(case_index));
    ++case_index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperHeuristics, EngineEquivalenceTest,
    ::testing::Values(SchedulerSpec{HeuristicKind::kPartial, CostCriterion::kC4},
                      SchedulerSpec{HeuristicKind::kFullOne, CostCriterion::kC4},
                      SchedulerSpec{HeuristicKind::kFullAll, CostCriterion::kC4}),
    [](const ::testing::TestParamInfo<SchedulerSpec>& param_info) {
      std::string name = param_info.param.name();
      for (char& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

// priority_first drives the engine through the same loop as full_one but with
// the priority-only criterion; run_priority_first does not expose paranoid
// mode, so replicate its loop here with the flag toggled.
StagingResult run_priority_first_mode(const Scenario& scenario, bool paranoid) {
  EngineOptions options;
  options.criterion = CostCriterion::kPriorityOnly;
  options.paranoid = paranoid;
  StagingEngine engine(scenario, options);
  while (std::optional<Candidate> best = engine.best_candidate()) {
    engine.apply_full_path_one(*best);
  }
  return engine.finish();
}

TEST(EngineEquivalencePriorityFirstTest, IncrementalMatchesParanoidOnSeedGrid) {
  std::size_t case_index = 0;
  for (const Scenario& scenario : grid_scenarios()) {
    const StagingResult incremental = run_priority_first_mode(scenario, false);
    const StagingResult paranoid = run_priority_first_mode(scenario, true);
    expect_equivalent(scenario, incremental, paranoid,
                      "priority_first case " + std::to_string(case_index));
    ++case_index;
  }
}

// The harness must give byte-identical case results for any worker count
// (indexed result slots, per-case RNG streams — no scheduling races).
TEST(EngineEquivalenceJobsTest, Jobs1MatchesJobs8) {
  ExperimentConfig config;
  config.cases = 6;
  config.seed = 9001;
  const CaseSet cases = build_cases(config);
  const SchedulerSpec spec{HeuristicKind::kFullOne, CostCriterion::kC4};
  EngineOptions options;
  options.criterion = spec.criterion;
  options.eu = EUWeights::from_log10_ratio(1.0);

  const std::size_t saved_jobs = default_jobs();
  set_default_jobs(1);
  const std::vector<CaseResult> serial = run_cases(cases, spec, options);
  set_default_jobs(8);
  const std::vector<CaseResult> parallel = run_cases(cases, spec, options);
  set_default_jobs(saved_jobs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(schedule_to_string(serial[i].staging.schedule),
              schedule_to_string(parallel[i].staging.schedule))
        << "case " << i;
    EXPECT_EQ(outcomes_to_string(serial[i].staging),
              outcomes_to_string(parallel[i].staging))
        << "case " << i;
    EXPECT_EQ(serial[i].weighted_value, parallel[i].weighted_value) << "case " << i;
    EXPECT_EQ(serial[i].satisfied, parallel[i].satisfied) << "case " << i;
    EXPECT_EQ(serial[i].by_class, parallel[i].by_class) << "case " << i;
  }
}

// --- Intra-engine parallelism (--engine-jobs) -------------------------------
//
// The parallel refresh path must be *byte-identical* to the serial engine in
// every observable output — not just the schedule and outcomes, but the full
// metrics registry and the structured trace stream. Any divergence means the
// deterministic-merge contract broke.

StagingResult run_observed(const SchedulerSpec& spec, const Scenario& scenario,
                           std::size_t engine_jobs, std::string* metrics_json,
                           std::string* trace_text) {
  EngineOptions options;
  options.criterion = spec.criterion;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.engine_jobs = engine_jobs;
  obs::MetricsRegistry registry;
  std::ostringstream trace_os;
  obs::RunTrace trace(trace_os);
  obs::RunObserver observer;
  observer.metrics = &registry;
  observer.trace = &trace;
  options.observer = &observer;
  const StagingResult result = run_spec(spec, scenario, options);
  *metrics_json = registry.to_json();
  *trace_text = trace_os.str();
  return result;
}

class EngineParallelEquivalenceTest
    : public ::testing::TestWithParam<SchedulerSpec> {};

TEST_P(EngineParallelEquivalenceTest, EngineJobsMatchSerialOnSeedGrid) {
  const SchedulerSpec spec = GetParam();
  std::size_t case_index = 0;
  for (const Scenario& scenario : grid_scenarios()) {
    std::string serial_metrics;
    std::string serial_trace;
    const StagingResult serial =
        run_observed(spec, scenario, 1, &serial_metrics, &serial_trace);
    for (const std::size_t engine_jobs : {std::size_t{2}, std::size_t{8}}) {
      std::string parallel_metrics;
      std::string parallel_trace;
      const StagingResult parallel = run_observed(
          spec, scenario, engine_jobs, &parallel_metrics, &parallel_trace);
      const std::string label = spec.name() + " case " +
                                std::to_string(case_index) + " engine_jobs=" +
                                std::to_string(engine_jobs);
      expect_equivalent(scenario, parallel, serial, label);
      EXPECT_EQ(parallel_metrics, serial_metrics) << label;
      EXPECT_EQ(parallel_trace, serial_trace) << label;
    }
    ++case_index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperHeuristics, EngineParallelEquivalenceTest,
    ::testing::Values(SchedulerSpec{HeuristicKind::kPartial, CostCriterion::kC4},
                      SchedulerSpec{HeuristicKind::kFullOne, CostCriterion::kC4},
                      SchedulerSpec{HeuristicKind::kFullAll, CostCriterion::kC4}),
    [](const ::testing::TestParamInfo<SchedulerSpec>& param_info) {
      std::string name = param_info.param.name();
      for (char& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

StagingResult run_priority_first_engine_jobs(const Scenario& scenario,
                                             std::size_t engine_jobs) {
  EngineOptions options;
  options.criterion = CostCriterion::kPriorityOnly;
  options.engine_jobs = engine_jobs;
  StagingEngine engine(scenario, options);
  while (std::optional<Candidate> best = engine.best_candidate()) {
    engine.apply_full_path_one(*best);
  }
  return engine.finish();
}

TEST(EngineParallelPriorityFirstTest, EngineJobsMatchSerialOnSeedGrid) {
  std::size_t case_index = 0;
  for (const Scenario& scenario : grid_scenarios()) {
    const StagingResult serial = run_priority_first_engine_jobs(scenario, 1);
    for (const std::size_t engine_jobs : {std::size_t{2}, std::size_t{8}}) {
      expect_equivalent(scenario, run_priority_first_engine_jobs(scenario, engine_jobs),
                        serial,
                        "priority_first case " + std::to_string(case_index) +
                            " engine_jobs=" + std::to_string(engine_jobs));
    }
    ++case_index;
  }
}

// The documented candidate order (cost, item, next machine, first destination
// index) — mirrors the engine's internal candidate_less comparator.
bool candidate_order(const Candidate& a, const Candidate& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.item != b.item) return a.item < b.item;
  if (a.hop.to != b.hop.to) return a.hop.to < b.hop.to;
  const std::int32_t ka = a.dests.empty() ? -1 : a.dests.front().k;
  const std::int32_t kb = b.dests.empty() ? -1 : b.dests.front().k;
  return ka < kb;
}

// all_candidates()/candidate_count() share best_candidate()'s refresh path.
// After every commit (= one invalidation wave) the enumeration must agree
// with the tournament winner and with the maintained count, in both serial
// and parallel modes.
TEST(EngineCandidateParityTest, EnumerationAgreesWithTournamentAfterInvalidations) {
  for (const std::size_t engine_jobs : {std::size_t{1}, std::size_t{8}}) {
    std::size_t case_index = 0;
    for (const Scenario& scenario : grid_scenarios()) {
      EngineOptions options;
      options.criterion = CostCriterion::kC4;
      options.eu = EUWeights::from_log10_ratio(1.0);
      options.engine_jobs = engine_jobs;
      StagingEngine engine(scenario, options);
      const std::string label = "case " + std::to_string(case_index) +
                                " engine_jobs=" + std::to_string(engine_jobs);
      std::size_t rounds = 0;
      for (;;) {
        const std::size_t count = engine.candidate_count();
        const std::vector<Candidate> all = engine.all_candidates();
        ASSERT_EQ(all.size(), count) << label << " round " << rounds;
        const std::optional<Candidate> best = engine.best_candidate();
        if (!best.has_value()) {
          EXPECT_TRUE(all.empty()) << label << " round " << rounds;
          break;
        }
        const Candidate* min = nullptr;
        for (const Candidate& c : all) {
          if (min == nullptr || candidate_order(c, *min)) min = &c;
        }
        ASSERT_NE(min, nullptr) << label << " round " << rounds;
        EXPECT_EQ(min->item, best->item) << label << " round " << rounds;
        EXPECT_EQ(min->hop.to, best->hop.to) << label << " round " << rounds;
        EXPECT_EQ(min->cost, best->cost) << label << " round " << rounds;
        engine.apply_full_path_one(*best);
        ++rounds;
      }
      EXPECT_GT(rounds, 0u) << label;
      ++case_index;
    }
  }
}

}  // namespace
}  // namespace datastage
