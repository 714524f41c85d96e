// Shared plumbing for the figure/table bench binaries.
//
// Every binary regenerating a paper artifact accepts the same flags:
//   --cases=N      test cases to average (paper: 40; default lighter)
//   --seed=S       base RNG seed for case generation
//   --weighting=A  "1,10,100" (default) or "1,5,10"
//   --csv=PATH     also write the data series as CSV
//   --jobs=N       worker threads for the experiment grid (default: hardware
//                  concurrency; output is byte-identical for any value)
//   --verbose      progress logging while sweeping
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "obs/observer.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

// Set per bench target from CMAKE_BUILD_TYPE (bench/CMakeLists.txt).
#ifndef DATASTAGE_BUILD_TYPE
#define DATASTAGE_BUILD_TYPE "unknown"
#endif

namespace datastage::benchtool {

/// Engine cost counters of one scheduler run (observability snapshot); lets
/// the result tables explain *why* heuristics differ in cost, not just by
/// how much. Doubles because google-benchmark counters are doubles.
struct EngineCostSnapshot {
  double iterations = 0.0;
  double recomputes = 0.0;   ///< Dijkstra tree recomputes (cache misses)
  double cache_hits = 0.0;   ///< cached route trees reused
  double candidates = 0.0;   ///< candidates generated and scored
  double steps = 0.0;        ///< communication steps committed
};

/// Runs `spec` once on `scenario` with a metrics observer attached and
/// returns the engine's cost counters. Observation does not change the
/// schedule, so the snapshot describes the same run the timings measure.
inline EngineCostSnapshot snapshot_engine_cost(const SchedulerSpec& spec,
                                               const Scenario& scenario,
                                               EngineOptions options) {
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  options.observer = &observer;
  run_case(spec, scenario, options);
  const auto value = [&registry](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  EngineCostSnapshot snapshot;
  snapshot.iterations = value("engine.iterations");
  snapshot.recomputes = value("engine.tree_recomputes");
  snapshot.cache_hits = value("engine.cache_hits");
  snapshot.candidates = value("engine.candidates_scored");
  snapshot.steps = value("engine.steps_committed");
  return snapshot;
}

struct BenchSetup {
  ExperimentConfig config;
  PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  std::string csv_path;
  std::size_t jobs = 0;  ///< resolved worker count (after parse)
  bool verbose = false;
};

/// Parses the shared flags into `setup` and hands back the parsed flags, so a
/// binary reads its `extra_flags` from the same parse. nullopt (after a
/// message on stderr) on an unknown flag or a bad --weighting.
inline std::optional<CliFlags> parse_bench_flags(int argc, const char* const* argv,
                                                 BenchSetup& setup,
                                                 std::vector<std::string> extra_flags = {}) {
  std::vector<std::string> known{"cases", "seed", "weighting", "csv", "jobs",
                                 "verbose"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  CliFlags flags;
  if (!flags.parse(argc, argv, known)) return std::nullopt;

  setup.config.cases = static_cast<std::size_t>(flags.get_int("cases", 40));
  setup.config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2000));
  setup.csv_path = flags.get_string("csv", "");
  setup.verbose = flags.get_bool("verbose", false);
  if (setup.verbose) set_log_level(LogLevel::kInfo);

  // 0 = hardware concurrency; the harness entry points all fan out through
  // the process-wide executor configured here.
  set_default_jobs(static_cast<std::size_t>(flags.get_int("jobs", 0)));
  setup.jobs = default_jobs();

  const std::string weighting = flags.get_string("weighting", "1,10,100");
  if (weighting == "1,10,100") {
    setup.weighting = PriorityWeighting::w_1_10_100();
  } else if (weighting == "1,5,10") {
    setup.weighting = PriorityWeighting::w_1_5_10();
  } else {
    std::fprintf(stderr, "unknown --weighting '%s' (use 1,10,100 or 1,5,10)\n",
                 weighting.c_str());
    return std::nullopt;
  }
  return flags;
}

inline void print_header(const std::string& title, const BenchSetup& setup) {
  std::printf("%s\n", title.c_str());
  // --jobs intentionally absent: headers must be byte-identical across jobs
  // values (the determinism suite diffs whole stdout captures).
  std::printf("cases=%zu seed=%llu weighting=%s\n\n", setup.config.cases,
              static_cast<unsigned long long>(setup.config.seed),
              setup.weighting.to_string().c_str());
}

/// Writes the host facts every perf JSON records next to its timings, as two
/// top-level members: the cores the process may use and the build type.
inline void write_host_json(std::FILE* f) {
  std::fprintf(f, "  \"host_cores\": %zu,\n  \"build_type\": \"%s\",\n",
               ThreadPool::hardware_jobs(), DATASTAGE_BUILD_TYPE);
}

}  // namespace datastage::benchtool
