// Engine microbenchmark: incremental candidate selection vs the paper's
// recompute-everything procedure (--paranoid) on a small/medium/large
// scenario grid. For each size it reports wall time and the engine's cost
// counters for both modes, checks the schedules are byte-identical, and
// writes the whole record to BENCH_engine.json — the repo's perf-trajectory
// baseline (see docs/PERFORMANCE.md for how to read it).
//
// Each grid entry also runs an --engine-jobs ablation (parallel plan
// refresh, docs/PARALLELISM.md) and records it under a "parallel" key: wall
// time, speedup vs the serial engine, and whether the schedules stayed
// byte-identical — the bench doubles as a determinism gate for the parallel
// path.
//
// Extra flags on top of the shared bench set:
//   --out=PATH       JSON output path (default BENCH_engine.json)
//   --grid=G         "small", "medium", "large" or "all" (default all)
//   --engine-jobs=N  thread count for the parallel ablation (default 8;
//                    0 = hardware concurrency)
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "common_flags.hpp"
#include "core/heuristics.hpp"
#include "core/registry.hpp"
#include "core/schedule_io.hpp"
#include "gen/generator.hpp"
#include "obs/json.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace {

using namespace datastage;

/// The counters BENCH_engine.json records per mode, in output order.
constexpr const char* kCounters[] = {
    "engine.iterations",
    "engine.scoring_rounds",
    "engine.tree_recomputes",
    "engine.cache_hits",
    "engine.candidates_scored",
    "engine.best_rescans",
    "engine.steps_committed",
    "engine.invalidations_link",
    "engine.invalidations_storage",
    "engine.invalidations_self",
    "engine.invalidations_checked",
    "engine.invalidations_scan_equiv",
    "dijkstra.heap_pops",
    "dijkstra.relaxations",
    "dijkstra.link_searches",
    "dijkstra.storage_checks",
};

struct ModeResult {
  std::int64_t wall_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::string> schedules;  ///< canonical text, for cross-mode diff

  std::uint64_t counter(std::string_view name) const {
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    return 0;
  }
};

ModeResult run_mode(const std::vector<Scenario>& cases, const SchedulerSpec& spec,
                    const PriorityWeighting& weighting, bool paranoid,
                    std::size_t engine_jobs = 1) {
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  EngineOptions options;
  options.weighting = weighting;
  options.criterion = spec.criterion;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.paranoid = paranoid;
  options.engine_jobs = engine_jobs;
  options.observer = &observer;

  ModeResult result;
  result.schedules.reserve(cases.size());
  const std::int64_t t0 = steady_clock_nanos();
  for (const Scenario& scenario : cases) {
    const StagingResult staged = run_spec(spec, scenario, options);
    result.schedules.push_back(schedule_to_string(staged.schedule));
  }
  result.wall_ns = steady_clock_nanos() - t0;
  for (const char* name : kCounters) {
    result.counters.emplace_back(name, registry.counter_value(name));
  }
  return result;
}

struct GridEntry {
  const char* name;
  GeneratorConfig config;
};

std::vector<GridEntry> build_grid(const std::string& which) {
  GeneratorConfig large = GeneratorConfig::paper();
  large.min_machines = 16;
  large.max_machines = 16;
  large.min_requests_per_machine = 40;
  large.max_requests_per_machine = 40;
  std::vector<GridEntry> grid;
  if (which == "small" || which == "all") {
    grid.push_back({"small", GeneratorConfig::light()});
  }
  if (which == "medium" || which == "all") {
    grid.push_back({"medium", GeneratorConfig::paper()});
  }
  if (which == "large" || which == "all") {
    grid.push_back({"large", large});
  }
  return grid;
}

void write_mode_json(std::FILE* f, const char* key, const ModeResult& mode) {
  std::fprintf(f, "      \"%s\": {\n        \"wall_ns\": %" PRId64
                  ",\n        \"counters\": {",
               key, mode.wall_ns);
  bool first = true;
  for (const auto& [name, value] : mode.counters) {
    std::fprintf(f, "%s\n          \"%s\": %llu", first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(value));
    first = false;
  }
  std::fprintf(f, "\n        }\n      }");
}

}  // namespace

int main(int argc, char** argv) {
  benchtool::BenchSetup setup;
  const std::optional<CliFlags> flags =
      benchtool::parse_bench_flags(argc, argv, setup, {"out", "grid", "engine-jobs"});
  if (!flags) return 1;
  const std::string out_path = flags->get_string("out", "BENCH_engine.json");
  const auto engine_jobs_flag =
      static_cast<std::size_t>(flags->get_int("engine-jobs", 8));
  const std::size_t engine_jobs =
      engine_jobs_flag == 0 ? ThreadPool::hardware_jobs() : engine_jobs_flag;
  const std::string grid_name = flags->get_string("grid", "all");
  const std::vector<GridEntry> grid = build_grid(grid_name);
  if (grid.empty()) {
    std::fprintf(stderr, "unknown --grid '%s' (use small, medium, large or all)\n",
                 grid_name.c_str());
    return 1;
  }

  // Lighter default than the figure benches: each size runs twice (modes) and
  // the paranoid large runs are the expensive part being measured.
  if (setup.config.cases == 40) setup.config.cases = 4;
  benchtool::print_header("Engine cost: incremental vs paranoid (full_one/C4)",
                          setup);

  const SchedulerSpec spec{HeuristicKind::kFullOne, CostCriterion::kC4};

  Table table({"size", "incr ms", "paranoid ms", "speedup", "inval reduction",
               "ej ms", "ej speedup", "identical"});

  std::FILE* f = toolflags::open_output_cfile(out_path, "bench output");
  if (f == nullptr) return 2;
  std::fprintf(f,
               "{\n  \"bench\": \"perf_engine\",\n  \"scheduler\": \"%s\",\n"
               "  \"cases\": %zu,\n  \"seed\": %llu,\n",
               spec.name().c_str(), setup.config.cases,
               static_cast<unsigned long long>(setup.config.seed));
  benchtool::write_host_json(f);
  std::fprintf(f, "  \"grid\": [\n");

  bool all_identical = true;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const GridEntry& entry = grid[g];
    const std::vector<Scenario> cases =
        generate_cases(entry.config, setup.config.seed, setup.config.cases);

    const ModeResult incremental = run_mode(cases, spec, setup.weighting, false);
    const ModeResult paranoid = run_mode(cases, spec, setup.weighting, true);
    const ModeResult parallel =
        run_mode(cases, spec, setup.weighting, false, engine_jobs);
    const bool identical = incremental.schedules == paranoid.schedules;
    const bool parallel_identical = incremental.schedules == parallel.schedules;
    all_identical = all_identical && identical && parallel_identical;

    const double incr_ms = static_cast<double>(incremental.wall_ns) / 1e6;
    const double par_ms = static_cast<double>(paranoid.wall_ns) / 1e6;
    const double speedup = incremental.wall_ns > 0 ? par_ms / incr_ms : 0.0;
    const auto checked =
        static_cast<double>(incremental.counter("engine.invalidations_checked"));
    const auto scan_equiv =
        static_cast<double>(incremental.counter("engine.invalidations_scan_equiv"));
    const double reduction = checked > 0.0 ? scan_equiv / checked : 0.0;
    const double ej_ms = static_cast<double>(parallel.wall_ns) / 1e6;
    const double ej_speedup = parallel.wall_ns > 0 ? incr_ms / ej_ms : 0.0;

    table.add_row({entry.name, format_double(incr_ms, 1), format_double(par_ms, 1),
                   format_double(speedup, 2), format_double(reduction, 2),
                   format_double(ej_ms, 1), format_double(ej_speedup, 2),
                   identical && parallel_identical ? "yes" : "NO"});

    std::fprintf(f,
                 "    {\n      \"size\": \"%s\",\n      \"machines\": [%d, %d],\n"
                 "      \"requests_per_machine\": [%d, %d],\n",
                 entry.name, entry.config.min_machines, entry.config.max_machines,
                 entry.config.min_requests_per_machine,
                 entry.config.max_requests_per_machine);
    write_mode_json(f, "incremental", incremental);
    std::fprintf(f, ",\n");
    write_mode_json(f, "paranoid", paranoid);
    std::fprintf(f, ",\n");
    write_mode_json(f, "parallel", parallel);
    std::fprintf(f,
                 ",\n      \"parallel_ablation\": {\n"
                 "        \"engine_jobs\": %zu,\n"
                 "        \"speedup_vs_serial\": %s,\n"
                 "        \"schedules_identical\": %s\n      },\n",
                 engine_jobs, obs::json_number(ej_speedup).c_str(),
                 parallel_identical ? "true" : "false");
    std::fprintf(f,
                 "      \"schedules_identical\": %s,\n"
                 "      \"speedup_wall\": %s,\n"
                 "      \"invalidation_scan_reduction\": %s\n    }%s\n",
                 identical ? "true" : "false",
                 obs::json_number(speedup).c_str(),
                 obs::json_number(reduction).c_str(),
                 g + 1 < grid.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("%s\n", table.to_text().c_str());
  std::printf("(JSON written to %s)\n", out_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: schedules differ across modes — the route cache or the "
                 "parallel refresh path is unsound\n");
    return 1;
  }
  return 0;
}
