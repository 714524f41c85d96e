// datastage_run — schedule a scenario file and report the outcome.
//
//   $ datastage_run case7.ds --scheduler=full_one/C4 --ratio=2
//   $ datastage_run case7.ds --scheduler=partial/C3 --report --save=plan.dss
//   $ datastage_run case7.ds --sweep --jobs=8 --csv=sweep.csv
//
// Flags:
//   --scheduler=NAME   heuristic/criterion pair (default full_one/C4); also
//                      accepts the baselines single_dij_random,
//                      random_dijkstra, priority_first, edf, and the beam
//                      search ("beam", see --width)
//   --width=N          beam width for --scheduler=beam (default 8)
//   --ratio=X          log10(W_E/W_U), default 1
//   --report           print request/link/storage tables
//   --trace            print the transfer log
//   --save=PATH        write the schedule file
//   --sweep            sweep every paper pair across the E-U axis on this
//                      scenario (parallel across the grid, see --jobs) and
//                      print the figure-style table instead of one run
//   --csv=PATH         with --sweep/--fault-sweep: also write the series as CSV
//   --faults=F         score the plan under the FaultSpec file F: realized
//                      value via sim/fault_replay plus the dynamic stager's
//                      recovered value (for heuristic/criterion schedulers)
//   --fault-sweep      sweep fault intensities on this scenario (degradation
//                      curve: planned/realized/recovered/clairvoyant values;
//                      parallel across the grid, byte-identical for any
//                      --jobs). Sweeps --scheduler when given, else
//                      partial/C4 and full_one/C4
//   --fault-seed=N     seed of the --fault-sweep fault draw (default 9000)
// Plus the shared tool flags (tools/common_flags.hpp):
//   --seed=N           RNG seed for the random baselines
//   --weighting=W      1,10,100 (default) or 1,5,10
//   --jobs=N           worker threads for --sweep (default: hardware
//                      concurrency; output is byte-identical for any value)
//   --paranoid         disable the engine's route-tree cache (recompute every
//                      iteration; validates the cache against the paper's
//                      literal procedure)
//   --metrics-out=F    write a metrics document (engine/net counters, phase
//                      timings) to F
//   --metrics-format=X json (default) or openmetrics (Prometheus text)
//   --trace-out=F      write a JSON-lines structured run trace to F
// Tool-specific observability:
//   --chrome-trace-out=F  write a Chrome Trace Event JSON file (per-link
//                      occupancy in simulation time + wall-clock phase
//                      slices) viewable in ui.perfetto.dev
#include <cstdio>
#include <fstream>
#include <optional>

#include "common_flags.hpp"
#include "core/bounds.hpp"
#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "core/registry.hpp"
#include "core/schedule_io.hpp"
#include "dynamic/fault_events.hpp"
#include "dynamic/stager.hpp"
#include "harness/experiment.hpp"
#include "harness/fault_sweep.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "model/fault_io.hpp"
#include "model/scenario_io.hpp"
#include "obs/observer.hpp"
#include "sim/chrome_trace.hpp"
#include "sim/fault_replay.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace datastage;

namespace {

/// --sweep: treat the single scenario as a one-case CaseSet and fan the
/// (paper pair x E-U axis) grid through the parallel executor.
int run_sweep_mode(const Scenario& scenario, const PriorityWeighting& weighting,
                   std::uint64_t seed, const std::string& csv_path) {
  // A bad --csv path must fail before the sweep runs, not after it.
  std::ofstream csv;
  if (!csv_path.empty() &&
      !toolflags::open_output_file(csv, csv_path, "sweep CSV")) {
    return 2;
  }

  CaseSet cases;
  cases.seed = seed;
  cases.scenarios.push_back(scenario);

  SweepResult sweep =
      sweep_pairs(cases, weighting, paper_pairs(), paper_eu_axis());
  const AveragedBounds bounds = average_bounds(cases, weighting);
  add_flat_series(sweep, "upper_bound", bounds.upper_bound);
  add_flat_series(sweep, "possible_satisfy", bounds.possible_satisfy);
  add_flat_series(sweep, "random_Dijkstra", average_random_dijkstra(cases, weighting));
  add_flat_series(sweep, "single_Dij_random",
                  average_single_dijkstra_random(cases, weighting));
  print_sweep("E-U sweep — every paper pair on this scenario:", sweep, "");
  if (csv.is_open()) {
    csv << sweep_table(sweep).to_csv();
    std::printf("(CSV written to %s)\n\n", csv_path.c_str());
  }
  return 0;
}

/// --fault-sweep: degradation curve on this scenario across the default
/// intensity grid. Sweeps --scheduler when given, else partial/C4 and
/// full_one/C4 (the two primary heuristics under the paper's criterion).
int run_fault_sweep_mode(const Scenario& scenario, const PriorityWeighting& weighting,
                         const CliFlags& flags, std::uint64_t seed,
                         const std::string& csv_path) {
  // As for --sweep: a bad --csv path must fail before the sweep runs.
  std::ofstream csv;
  if (!csv_path.empty() &&
      !toolflags::open_output_file(csv, csv_path, "sweep CSV")) {
    return 2;
  }

  CaseSet cases;
  cases.seed = seed;
  cases.scenarios.push_back(scenario);

  std::vector<SchedulerSpec> specs;
  if (flags.has("scheduler")) {
    const std::string scheduler = flags.get_string("scheduler", "");
    const std::optional<SchedulerSpec> spec = parse_spec(scheduler);
    if (!spec.has_value()) {
      std::fprintf(stderr, "unknown scheduler '%s' for --fault-sweep\n",
                   scheduler.c_str());
      return 1;
    }
    specs.push_back(*spec);
  } else {
    specs.push_back(SchedulerSpec{HeuristicKind::kPartial, CostCriterion::kC4});
    specs.push_back(SchedulerSpec{HeuristicKind::kFullOne, CostCriterion::kC4});
  }

  FaultSweepConfig config;
  config.fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 9000));

  EngineOptions options;
  options.weighting = weighting;
  options.eu = EUWeights::from_log10_ratio(flags.get_double("ratio", 1.0));

  const FaultSweepResult sweep = run_fault_sweep(cases, specs, config, options);

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
  std::printf("Fault-intensity sweep:\n%s", table.to_text().c_str());

  if (csv.is_open()) {
    csv << sweep.to_csv();
    std::printf("CSV written to %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  const std::vector<std::string> known = toolflags::with_common_flags(
      {"scheduler", "ratio", "report", "trace", "save", "width", "sweep", "csv",
       "faults", "fault-sweep", "fault-seed"});
  if (!flags.parse(argc, argv, known)) return 1;
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "usage: datastage_run <scenario-file> [flags]\n");
    return 1;
  }

  toolflags::Observability observability;
  if (!observability.open(flags)) return 2;
  obs::PhaseTimer* timing = observability.phases();

  std::string error;
  std::optional<Scenario> scenario;
  {
    obs::ScopedTimer timer(timing, "load");
    scenario = load_scenario(flags.positional().front(), &error);
  }
  if (!scenario.has_value()) {
    std::fprintf(stderr, "cannot load scenario: %s\n", error.c_str());
    return 1;
  }

  const std::optional<PriorityWeighting> weighting = toolflags::parse_weighting(flags);
  if (!weighting.has_value()) return 1;
  const std::uint64_t seed = toolflags::seed_flag(flags, 1);
  // Applies to every engine this process constructs, including the ones the
  // sweep harnesses build internally.
  toolflags::apply_engine_jobs_flag(flags);

  if (flags.get_bool("sweep", false)) {
    toolflags::apply_jobs_flag(flags);
    return run_sweep_mode(*scenario, *weighting, seed,
                          flags.get_string("csv", ""));
  }
  if (flags.get_bool("fault-sweep", false)) {
    toolflags::apply_jobs_flag(flags);
    return run_fault_sweep_mode(*scenario, *weighting, flags, seed,
                                flags.get_string("csv", ""));
  }

  const EngineOptions options =
      toolflags::make_engine_options(flags, *weighting, observability);

  const std::string scheduler = flags.get_string("scheduler", "full_one/C4");
  Rng rng(seed);

  StagingResult result;
  {
    obs::ScopedTimer schedule_timer(timing, "schedule");
    if (scheduler == "single_dij_random") {
      result = run_single_dijkstra_random(*scenario, *weighting, rng);
    } else if (scheduler == "random_dijkstra") {
      result = run_random_dijkstra(*scenario, *weighting, rng);
    } else if (scheduler == "priority_first") {
      result = run_priority_first(*scenario, *weighting);
    } else if (scheduler == "edf") {
      result = run_earliest_deadline_first(*scenario, *weighting);
    } else if (scheduler == "beam") {
      BeamOptions beam;
      beam.weighting = *weighting;
      beam.width = static_cast<std::size_t>(flags.get_int("width", 8));
      result = run_beam_search(*scenario, beam);
    } else {
      const auto spec = parse_spec(scheduler);
      if (!spec.has_value()) {
        std::fprintf(stderr, "unknown scheduler '%s'\n", scheduler.c_str());
        return 1;
      }
      result = run_spec(*spec, *scenario, options);
    }
  }

  const BoundsReport bounds = compute_bounds(*scenario, *weighting);
  const double value = weighted_value(*scenario, *weighting, result.outcomes);
  std::printf("scheduler:        %s\n", scheduler.c_str());
  std::printf("weighted value:   %.1f  (possible_satisfy %.1f, upper_bound %.1f)\n",
              value, bounds.possible_satisfy, bounds.upper_bound);
  std::printf("satisfied:        %zu / %zu requests\n",
              satisfied_count(result.outcomes), scenario->request_count());
  std::printf("transfers:        %zu (%s of link time)\n", result.schedule.size(),
              result.schedule.total_link_time().to_string().c_str());
  std::printf("dijkstra runs:    %zu\n", result.dijkstra_runs);

  std::optional<SimReport> replay_report;
  {
    obs::ScopedTimer timer(timing, "replay");
    replay_report = simulate(*scenario, result.schedule);
  }
  const SimReport& replay = *replay_report;
  std::printf("replay:           %s\n", replay.ok ? "clean" : "CONSTRAINT VIOLATION");
  if (!replay.ok) {
    for (const auto& issue : replay.issues) {
      std::fprintf(stderr, "  %s\n", issue.c_str());
    }
    return 2;
  }

  const std::string faults_path = flags.get_string("faults", "");
  if (!faults_path.empty()) {
    std::string fault_error;
    const std::optional<FaultSpec> faults = load_faults(faults_path, &fault_error);
    if (!faults.has_value()) {
      std::fprintf(stderr, "cannot load faults: %s\n", fault_error.c_str());
      return 1;
    }
    const std::vector<std::string> defects = faults->validate(*scenario);
    if (!defects.empty()) {
      for (const std::string& defect : defects) {
        std::fprintf(stderr, "fault spec: %s\n", defect.c_str());
      }
      return 1;
    }
    const FaultReplayReport realized =
        replay_under_faults(*scenario, result.schedule, *faults);
    std::printf("\nUnder faults (%s):\n", faults_path.c_str());
    std::printf("outage fraction:  %.4f\n", outage_fraction(*faults, *scenario));
    std::printf("realized value:   %.1f  (planned %.1f)\n",
                weighted_value(*scenario, *weighting, realized.outcomes), value);
    std::printf("realized:         %zu transfers, %zu dropped "
                "(%zu outage, %zu missing copy, %zu window), %zu stretched\n",
                realized.transfers, realized.dropped(), realized.dropped_outage,
                realized.dropped_missing_copy, realized.dropped_window,
                realized.stretched);
    // Recovery needs a replanning heuristic — only defined for the
    // heuristic/criterion pairs, not the baselines or the beam search.
    const std::optional<SchedulerSpec> pair_spec = parse_spec(scheduler);
    if (pair_spec.has_value()) {
      DynamicStager stager(*scenario, *pair_spec, options);
      for (const StagingEvent& event : fault_events(*faults)) {
        stager.on_event(event);
      }
      const DynamicResult recovered = stager.finish();
      std::printf("recovered value:  %.1f  (%zu replans, %zu satisfied)\n",
                  recovered.weighted_value(*weighting), recovered.replans,
                  recovered.satisfied_count());
    }
  }

  if (flags.get_bool("trace", false)) {
    std::printf("\nSchedule:\n%s", schedule_trace(*scenario, result.schedule).c_str());
  }
  if (flags.get_bool("report", false)) {
    std::printf("\nRequests:\n%s",
                request_report(*scenario, result.outcomes).to_text().c_str());
    std::printf("\nLink utilization:\n%s",
                link_utilization(*scenario, result.schedule).to_text().c_str());
    std::printf("\nStorage:\n%s",
                storage_summary(*scenario, result.schedule).to_text().c_str());
  }

  const std::string save = flags.get_string("save", "");
  if (!save.empty()) {
    save_schedule(save, result.schedule);
    std::printf("schedule written to %s\n", save.c_str());
  }

  if (!observability.chrome_trace_path().empty()) {
    sim::ChromeTraceOptions chrome;
    chrome.outcomes = &result.outcomes;
    chrome.phases = timing;
    if (!observability.write_chrome_trace(
            sim::chrome_trace_json(*scenario, result.schedule, chrome))) {
      return 2;
    }
    std::printf("chrome trace written to %s\n",
                observability.chrome_trace_path().c_str());
  }

  if (!observability.metrics_path().empty()) {
    observability.registry().set_gauge("run.weighted_value", value);
    observability.registry().set_gauge(
        "run.satisfied", static_cast<double>(satisfied_count(result.outcomes)));
    if (!observability.write_metrics()) return 1;
    std::printf("\nMetrics:\n%s",
                observability.registry().to_table().to_text().c_str());
    std::printf("metrics written to %s\n", observability.metrics_path().c_str());
  }
  if (!observability.trace_path().empty()) {
    std::printf("trace written to %s (%llu events)\n",
                observability.trace_path().c_str(),
                static_cast<unsigned long long>(observability.trace_events_written()));
  }
  return 0;
}
