#include "harness/experiment.hpp"

#include "harness/parallel.hpp"
#include "obs/observer.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace datastage {
namespace {

// Stream tags for the random baselines: each (baseline, case) pair derives
// its Rng as Rng(cases.seed).split(tag).split(case index), so the stream
// depends only on the base seed, the baseline and the case — never on how
// many cases ran before it or on which thread (the parallel determinism
// contract; see harness/parallel.hpp).
constexpr std::uint64_t kStreamSingleDijkstraRandom = 0xd1b54a32d192ed03ULL;
constexpr std::uint64_t kStreamRandomDijkstra = 0xeb382d69195c39b7ULL;

}  // namespace

CaseSet build_cases(const ExperimentConfig& config) {
  CaseSet cases;
  cases.seed = config.seed;
  cases.scenarios = generate_cases(config.gen, config.seed, config.cases);
  return cases;
}

std::vector<CaseResult> run_cases(const CaseSet& cases, const SchedulerSpec& spec,
                                  const EngineOptions& base_options,
                                  obs::MetricsRegistry* merged) {
  const std::size_t n = cases.scenarios.size();
  std::vector<obs::MetricsRegistry> registries(merged != nullptr ? n : 0);
  std::vector<CaseResult> results =
      default_executor().map<CaseResult>(n, [&](std::size_t i) {
        EngineOptions options = base_options;
        obs::RunObserver observer;
        if (merged != nullptr) {
          observer.metrics = &registries[i];
          options.observer = &observer;
        }
        return run_case(spec, cases.scenarios[i], options);
      });
  if (merged != nullptr) {
    // Sequential, in case order: merged output is independent of scheduling.
    for (const obs::MetricsRegistry& registry : registries) merged->merge(registry);
  }
  return results;
}

double average_pair_value(const CaseSet& cases, const PriorityWeighting& weighting,
                          const SchedulerSpec& spec, const EUWeights& eu) {
  EngineOptions options;
  options.weighting = weighting;
  options.eu = eu;
  double total = 0.0;
  for (const CaseResult& result : run_cases(cases, spec, options)) {
    total += result.weighted_value;
  }
  return total / static_cast<double>(cases.scenarios.size());
}

ValueStats pair_value_stats(const CaseSet& cases, const PriorityWeighting& weighting,
                            const SchedulerSpec& spec, const EUWeights& eu) {
  EngineOptions options;
  options.weighting = weighting;
  options.eu = eu;
  Accumulator acc;
  for (const CaseResult& result : run_cases(cases, spec, options)) {
    acc.add(result.weighted_value);
  }
  return ValueStats{acc.mean(), acc.min(), acc.max(), acc.stddev()};
}

Table scheduler_cost_table(const CaseSet& cases, const PriorityWeighting& weighting,
                           const EUWeights& eu,
                           const std::vector<SchedulerSpec>& specs,
                           obs::MetricsRegistry* merged) {
  Table table({"scheduler", "iterations", "recomputes", "repairs", "cache_hits",
               "hit_rate", "candidates", "steps"});
  const double n = static_cast<double>(cases.scenarios.size());
  EngineOptions options;
  options.weighting = weighting;
  options.eu = eu;
  for (const SchedulerSpec& spec : specs) {
    obs::MetricsRegistry registry;
    run_cases(cases, spec, options, &registry);
    const auto mean = [&](const char* name) {
      return static_cast<double>(registry.counter_value(name)) / n;
    };
    const double recomputes = mean("engine.tree_recomputes");
    const double repairs = mean("engine.tree_repairs");
    const double hits = mean("engine.cache_hits");
    // Every plan a round looks at is rebuilt by Dijkstra, rebuilt by a
    // repair, or reused.
    const double refreshes = recomputes + repairs + hits;
    table.add_row({spec.name(), format_double(mean("engine.iterations"), 1),
                   format_double(recomputes, 1), format_double(repairs, 1),
                   format_double(hits, 1),
                   format_double(refreshes == 0.0 ? 0.0 : hits / refreshes, 3),
                   format_double(mean("engine.candidates_scored"), 1),
                   format_double(mean("engine.steps_committed"), 1)});
    if (merged != nullptr) {
      const std::string prefix = spec.name() + "/";
      for (const auto& [name, value] : registry.counters()) {
        merged->counter(prefix + name).inc(value);
      }
    }
  }
  return table;
}

AveragedBounds average_bounds(const CaseSet& cases, const PriorityWeighting& weighting) {
  const std::vector<BoundsReport> reports =
      default_executor().map<BoundsReport>(cases.scenarios.size(), [&](std::size_t i) {
        return compute_bounds(cases.scenarios[i], weighting);
      });
  AveragedBounds avg;
  for (const BoundsReport& report : reports) {
    avg.upper_bound += report.upper_bound;
    avg.possible_satisfy += report.possible_satisfy;
  }
  const auto n = static_cast<double>(cases.scenarios.size());
  avg.upper_bound /= n;
  avg.possible_satisfy /= n;
  return avg;
}

namespace {

/// Shared shape of the two random baselines: per-case Rng from the stream
/// tag, parallel map, sequential mean.
template <class RunFn>
double average_random_baseline(const CaseSet& cases, std::uint64_t stream_tag,
                               const RunFn& run) {
  const Rng stream_root = Rng(cases.seed).split(stream_tag);
  const std::vector<double> values =
      default_executor().map<double>(cases.scenarios.size(), [&](std::size_t i) {
        Rng rng = stream_root.split(i);
        return run(cases.scenarios[i], rng);
      });
  double total = 0.0;
  for (const double value : values) total += value;
  return total / static_cast<double>(cases.scenarios.size());
}

}  // namespace

double average_single_dijkstra_random(const CaseSet& cases,
                                      const PriorityWeighting& weighting) {
  return average_random_baseline(
      cases, kStreamSingleDijkstraRandom, [&](const Scenario& scenario, Rng& rng) {
        const StagingResult result =
            run_single_dijkstra_random(scenario, weighting, rng);
        return weighted_value(scenario, weighting, result.outcomes);
      });
}

double average_random_dijkstra(const CaseSet& cases,
                               const PriorityWeighting& weighting) {
  return average_random_baseline(
      cases, kStreamRandomDijkstra, [&](const Scenario& scenario, Rng& rng) {
        const StagingResult result = run_random_dijkstra(scenario, weighting, rng);
        return weighted_value(scenario, weighting, result.outcomes);
      });
}

double average_priority_first(const CaseSet& cases,
                              const PriorityWeighting& weighting) {
  const std::vector<double> values =
      default_executor().map<double>(cases.scenarios.size(), [&](std::size_t i) {
        const StagingResult result =
            run_priority_first(cases.scenarios[i], weighting);
        return weighted_value(cases.scenarios[i], weighting, result.outcomes);
      });
  double total = 0.0;
  for (const double value : values) total += value;
  return total / static_cast<double>(cases.scenarios.size());
}

}  // namespace datastage
