// Fault-robustness benchmark: degradation curves for the primary heuristics.
//
// Runs the fault-intensity sweep (harness/fault_sweep) over a generated case
// set for partial/C4 and full_one/C4, prints the curve table and writes the
// whole record — per-point planned/realized/recovered/clairvoyant values plus
// the stager's faults.* recovery counters — to BENCH_faults.json, the repo's
// robustness-trajectory baseline (see docs/ROBUSTNESS.md for how to read it).
//
// Extra flags on top of the shared bench set:
//   --out=PATH       JSON output path (default BENCH_faults.json)
//   --fault-seed=N   seed of the fault draw (default 9000)
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "common_flags.hpp"
#include "harness/fault_sweep.hpp"
#include "util/time.hpp"

namespace {

using namespace datastage;

/// The recovery counters BENCH_faults.json records, in output order.
constexpr const char* kFaultCounters[] = {
    "faults.outages",
    "faults.restores",
    "faults.degrades",
    "faults.copy_losses",
    "faults.copy_losses_noop",
    "faults.inflight_dropped",
    "faults.requeued_requests",
};

void write_point_json(std::FILE* f, const FaultSweepPoint& point, bool last) {
  std::fprintf(f,
               "        {\"intensity\": %s, \"outage_fraction\": %s, "
               "\"planned\": %s, \"realized\": %s, \"recovered\": %s, "
               "\"clairvoyant\": %s}%s\n",
               format_double(point.intensity, 2).c_str(),
               format_double(point.outage_fraction, 6).c_str(),
               format_double(point.planned, 3).c_str(),
               format_double(point.realized, 3).c_str(),
               format_double(point.recovered, 3).c_str(),
               format_double(point.clairvoyant, 3).c_str(), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  benchtool::BenchSetup setup;
  const std::optional<CliFlags> flags =
      benchtool::parse_bench_flags(argc, argv, setup, {"out", "fault-seed"});
  if (!flags) return 1;
  const std::string out_path = flags->get_string("out", "BENCH_faults.json");

  // Lighter default than the figure benches: every (scheduler, intensity,
  // case) cell runs four schedulers' worth of work (plan + replay + dynamic
  // recovery + clairvoyant replan).
  if (setup.config.cases == 40) setup.config.cases = 8;
  benchtool::print_header("Fault robustness: planned vs realized vs recovered",
                          setup);

  const CaseSet cases = build_cases(setup.config);
  const std::vector<SchedulerSpec> specs{
      SchedulerSpec{HeuristicKind::kPartial, CostCriterion::kC4},
      SchedulerSpec{HeuristicKind::kFullOne, CostCriterion::kC4}};

  FaultSweepConfig config;
  config.fault_seed = static_cast<std::uint64_t>(flags->get_int("fault-seed", 9000));

  EngineOptions options;
  options.weighting = setup.weighting;
  options.eu = EUWeights::from_log10_ratio(1.0);

  obs::MetricsRegistry registry;
  const std::int64_t t0 = steady_clock_nanos();
  const FaultSweepResult sweep =
      run_fault_sweep(cases, specs, config, options, &registry);
  const std::int64_t wall_ns = steady_clock_nanos() - t0;

  Table table({"scheduler", "intensity", "outage_frac", "planned", "realized",
               "recovered", "clairvoyant"});
  for (const FaultSweepSeries& series : sweep.series) {
    for (const FaultSweepPoint& point : series.points) {
      table.add_row({series.spec.name(), format_double(point.intensity, 2),
                     format_double(point.outage_fraction, 4),
                     format_double(point.planned, 3),
                     format_double(point.realized, 3),
                     format_double(point.recovered, 3),
                     format_double(point.clairvoyant, 3)});
    }
  }
  std::fputs(table.to_text().c_str(), stdout);

  if (!setup.csv_path.empty()) {
    std::FILE* csv = toolflags::open_output_cfile(setup.csv_path, "sweep CSV");
    if (csv == nullptr) return 2;
    std::fputs(sweep.to_csv().c_str(), csv);
    std::fclose(csv);
    std::printf("CSV written to %s\n", setup.csv_path.c_str());
  }

  std::FILE* f = toolflags::open_output_cfile(out_path, "bench output");
  if (f == nullptr) return 2;
  std::fprintf(f,
               "{\n  \"bench\": \"perf_faults\",\n  \"cases\": %zu,\n"
               "  \"seed\": %llu,\n  \"fault_seed\": %llu,\n"
               "  \"wall_ns\": %" PRId64 ",\n  \"series\": [\n",
               setup.config.cases,
               static_cast<unsigned long long>(setup.config.seed),
               static_cast<unsigned long long>(config.fault_seed), wall_ns);
  for (std::size_t s = 0; s < sweep.series.size(); ++s) {
    const FaultSweepSeries& series = sweep.series[s];
    std::fprintf(f, "    {\n      \"scheduler\": \"%s\",\n      \"points\": [\n",
                 series.spec.name().c_str());
    for (std::size_t p = 0; p < series.points.size(); ++p) {
      write_point_json(f, series.points[p], p + 1 == series.points.size());
    }
    std::fprintf(f, "      ]\n    }%s\n",
                 s + 1 == sweep.series.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"counters\": {");
  bool first = true;
  for (const char* name : kFaultCounters) {
    std::fprintf(f, "%s\n    \"%s\": %llu", first ? "" : ",", name,
                 static_cast<unsigned long long>(registry.counter_value(name)));
    first = false;
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::printf("record written to %s\n", out_path.c_str());
  return 0;
}
