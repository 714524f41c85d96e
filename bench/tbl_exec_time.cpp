// TR companion data (§5.4 mentions execution time was collected): wall-clock
// microbenchmarks of every heuristic/criterion pair and the baselines on one
// fixed generated scenario, via google-benchmark.
// Next to the wall-clock numbers, each heuristic/criterion benchmark reports
// the engine's cost counters (iterations, Dijkstra recomputes, route-cache
// hits) as google-benchmark counters, so the table explains *why* the pairs
// differ in cost, not just by how much.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/heuristics.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"

namespace {

using namespace datastage;

const Scenario& bench_scenario() {
  static const Scenario scenario = [] {
    GeneratorConfig config;
    // Paper-shaped but lighter so the full matrix of timings stays quick.
    config.min_machines = 10;
    config.max_machines = 10;
    config.min_requests_per_machine = 10;
    config.max_requests_per_machine = 10;
    Rng rng(2000);
    return generate_scenario(config, rng);
  }();
  return scenario;
}

EngineOptions bench_options(CostCriterion criterion) {
  EngineOptions options;
  options.criterion = criterion;
  options.eu = EUWeights::from_log10_ratio(1.0);
  return options;
}

void BM_Pair(benchmark::State& state, SchedulerSpec spec) {
  const Scenario& scenario = bench_scenario();
  for (auto _ : state) {
    const StagingResult result =
        run_spec(spec, scenario, bench_options(spec.criterion));
    benchmark::DoNotOptimize(result.schedule.size());
  }
  const benchtool::EngineCostSnapshot snap =
      benchtool::snapshot_engine_cost(spec, scenario, bench_options(spec.criterion));
  state.counters["iters"] = snap.iterations;
  state.counters["recomputes"] = snap.recomputes;
  state.counters["cache_hits"] = snap.cache_hits;
  state.counters["candidates"] = snap.candidates;
}

void BM_SingleDijkstraRandom(benchmark::State& state) {
  const Scenario& scenario = bench_scenario();
  for (auto _ : state) {
    Rng rng(7);
    const StagingResult result =
        run_single_dijkstra_random(scenario, PriorityWeighting::w_1_10_100(), rng);
    benchmark::DoNotOptimize(result.schedule.size());
  }
}

void BM_RandomDijkstra(benchmark::State& state) {
  const Scenario& scenario = bench_scenario();
  for (auto _ : state) {
    Rng rng(7);
    const StagingResult result =
        run_random_dijkstra(scenario, PriorityWeighting::w_1_10_100(), rng);
    benchmark::DoNotOptimize(result.schedule.size());
  }
}

void BM_PriorityFirst(benchmark::State& state) {
  const Scenario& scenario = bench_scenario();
  for (auto _ : state) {
    const StagingResult result =
        run_priority_first(scenario, PriorityWeighting::w_1_10_100());
    benchmark::DoNotOptimize(result.schedule.size());
  }
}

void BM_Bounds(benchmark::State& state) {
  const Scenario& scenario = bench_scenario();
  for (auto _ : state) {
    const BoundsReport report =
        compute_bounds(scenario, PriorityWeighting::w_1_10_100());
    benchmark::DoNotOptimize(report.possible_satisfy);
  }
}

/// The paper recomputes every Dijkstra each iteration; the engine caches.
/// This pair of benchmarks quantifies the cache's speedup (ablation).
void BM_PartialC4_Paranoid(benchmark::State& state) {
  const Scenario& scenario = bench_scenario();
  EngineOptions options = bench_options(CostCriterion::kC4);
  options.paranoid = true;
  for (auto _ : state) {
    const StagingResult result =
        run_spec({HeuristicKind::kPartial, CostCriterion::kC4}, scenario, options);
    benchmark::DoNotOptimize(result.dijkstra_runs);
  }
  const benchtool::EngineCostSnapshot snap = benchtool::snapshot_engine_cost(
      {HeuristicKind::kPartial, CostCriterion::kC4}, scenario, options);
  state.counters["iters"] = snap.iterations;
  state.counters["recomputes"] = snap.recomputes;
  state.counters["cache_hits"] = snap.cache_hits;  // 0: the ablation's point
}

const int kRegistered = [] {
  for (const SchedulerSpec& spec : paper_pairs()) {
    benchmark::RegisterBenchmark(spec.name().c_str(),
                                 [spec](benchmark::State& s) { BM_Pair(s, spec); });
  }
  benchmark::RegisterBenchmark("single_Dij_random", BM_SingleDijkstraRandom);
  benchmark::RegisterBenchmark("random_Dijkstra", BM_RandomDijkstra);
  benchmark::RegisterBenchmark("priority_first", BM_PriorityFirst);
  benchmark::RegisterBenchmark("bounds", BM_Bounds);
  benchmark::RegisterBenchmark("partial/C4 (paranoid ablation)",
                               BM_PartialC4_Paranoid);
  return 0;
}();

}  // namespace

BENCHMARK_MAIN();
