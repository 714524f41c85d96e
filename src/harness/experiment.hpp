// Experiment harness: generates the shared test cases and evaluates
// schedulers, bounds and baselines over them.
//
// The paper averages every data point over the same 40 randomly generated
// test cases; the harness generates a CaseSet once per bench invocation and
// reuses it across all series so every curve sees identical workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bounds.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "model/priority.hpp"
#include "model/scenario.hpp"
#include "util/table.hpp"

namespace datastage {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct ExperimentConfig {
  GeneratorConfig gen;
  std::uint64_t seed = 2000;  ///< base seed for case generation
  std::size_t cases = 40;     ///< the paper uses 40
};

struct CaseSet {
  std::vector<Scenario> scenarios;
  std::uint64_t seed = 0;
};

CaseSet build_cases(const ExperimentConfig& config);

/// Runs `spec` on every case through run_case, fanned across the process-wide
/// parallel executor (harness/parallel.hpp). Results come back in case order
/// regardless of thread count or completion order. When `merged` is non-null,
/// each case runs with its own obs::MetricsRegistry/RunObserver and the
/// per-case registries are folded into `merged` in case order — counters
/// aggregate losslessly and identically for any --jobs value.
std::vector<CaseResult> run_cases(const CaseSet& cases,
                                  const SchedulerSpec& spec,
                                  const EngineOptions& options,
                                  obs::MetricsRegistry* merged = nullptr);

/// Mean weighted value of one heuristic/criterion pair across the cases.
double average_pair_value(const CaseSet& cases, const PriorityWeighting& weighting,
                          const SchedulerSpec& spec, const EUWeights& eu);

/// Dispersion across the individual cases (the TR companion of the paper
/// reports min/max over the 40 cases for the C4 pairs).
struct ValueStats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};
ValueStats pair_value_stats(const CaseSet& cases, const PriorityWeighting& weighting,
                            const SchedulerSpec& spec, const EUWeights& eu);

struct AveragedBounds {
  double upper_bound = 0.0;
  double possible_satisfy = 0.0;
};
AveragedBounds average_bounds(const CaseSet& cases, const PriorityWeighting& weighting);

/// Mean per-case engine cost counters for each spec: iterations, Dijkstra
/// recomputes, tree repairs, route-cache hits (plus hit rate: hits over all
/// plans refreshed, repairs counted as refreshes) and candidates scored —
/// the "why heuristics differ in cost" companion to their value numbers.
/// Observation does not perturb results (asserted by the integration tests).
/// When `merged` is non-null it additionally receives every engine counter,
/// prefixed "<spec name>/", merged in (spec, case) order — a deterministic
/// machine-readable companion to the table.
Table scheduler_cost_table(const CaseSet& cases, const PriorityWeighting& weighting,
                           const EUWeights& eu,
                           const std::vector<SchedulerSpec>& specs,
                           obs::MetricsRegistry* merged = nullptr);

/// Mean value of the §5.2 random baselines (RNG derived from the case seed).
double average_single_dijkstra_random(const CaseSet& cases,
                                      const PriorityWeighting& weighting);
double average_random_dijkstra(const CaseSet& cases,
                               const PriorityWeighting& weighting);
/// Mean value of the §5.4 priority-first simplified scheme.
double average_priority_first(const CaseSet& cases, const PriorityWeighting& weighting);

}  // namespace datastage
