// datastage_repro — regenerate every paper artifact in one run.
//
// Produces the data behind Figures 2-5 and the §5.4 comparison tables,
// printing each to stdout and (with --outdir) writing one CSV per artifact.
// Everything fans out across --jobs worker threads; stdout, the CSVs and the
// --metrics-out JSON are byte-identical for any jobs value.
//
//   $ datastage_repro --cases=40 --outdir=results/ --jobs=8
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common_flags.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

using namespace datastage;

namespace {

std::string csv_path(const std::string& outdir, const std::string& name) {
  if (outdir.empty()) return "";
  return (std::filesystem::path(outdir) / (name + ".csv")).string();
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (!flags.parse(argc, argv, {"cases", "seed", "outdir", "verbose", "jobs",
                                "engine-jobs", "metrics-out",
                                "metrics-format"})) {
    return 1;
  }

  ExperimentConfig config;
  config.cases = static_cast<std::size_t>(flags.get_int("cases", 40));
  config.seed = toolflags::seed_flag(flags, 2000);
  const std::string outdir = flags.get_string("outdir", "");
  // Observability::open opens the metrics sink before the (long) experiment
  // run: a bad path must fail the tool immediately (exit 2), not after
  // minutes of computation.
  toolflags::Observability observability;
  if (!observability.open(flags)) return 2;
  const std::string metrics_out = observability.metrics_path();
  if (!outdir.empty()) std::filesystem::create_directories(outdir);
  if (flags.get_bool("verbose", false)) set_log_level(LogLevel::kInfo);
  toolflags::apply_jobs_flag(flags);
  // Engines built inside the harness (sweep_pairs, run_cases, the bounds
  // baselines) all default-construct EngineOptions, so the process-wide
  // engine-jobs default is the only way the flag reaches them. The output is
  // engine-jobs-independent; the determinism smoke test byte-compares it.
  toolflags::apply_engine_jobs_flag(flags);

  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  std::printf("datastage paper reproduction — cases=%zu seed=%llu weighting=%s\n\n",
              config.cases, static_cast<unsigned long long>(config.seed),
              weighting.to_string().c_str());

  const CaseSet cases = build_cases(config);
  const std::vector<double> axis = paper_eu_axis();

  // Figure 2: best criterion (C4) per heuristic plus bounds and baselines.
  {
    SweepResult sweep = sweep_pairs(cases, weighting,
                                    {{HeuristicKind::kPartial, CostCriterion::kC4},
                                     {HeuristicKind::kFullOne, CostCriterion::kC4},
                                     {HeuristicKind::kFullAll, CostCriterion::kC4}},
                                    axis);
    const AveragedBounds bounds = average_bounds(cases, weighting);
    add_flat_series(sweep, "upper_bound", bounds.upper_bound);
    add_flat_series(sweep, "possible_satisfy", bounds.possible_satisfy);
    add_flat_series(sweep, "random_Dijkstra", average_random_dijkstra(cases, weighting));
    add_flat_series(sweep, "single_Dij_random",
                    average_single_dijkstra_random(cases, weighting));
    print_sweep("=== Figure 2 — bounds vs best criterion per heuristic ===", sweep,
                csv_path(outdir, "fig2"));
  }

  // Figures 3-5: all criteria per heuristic.
  const struct {
    HeuristicKind kind;
    const char* title;
    const char* file;
  } figures[] = {
      {HeuristicKind::kPartial, "=== Figure 3 — partial path, C1-C4 ===", "fig3"},
      {HeuristicKind::kFullOne, "=== Figure 4 — full path/one destination, C1-C4 ===",
       "fig4"},
      {HeuristicKind::kFullAll, "=== Figure 5 — full path/all destinations, C2-C4 ===",
       "fig5"},
  };
  for (const auto& figure : figures) {
    const SweepResult sweep =
        sweep_pairs(cases, weighting, pairs_for(figure.kind), axis);
    print_sweep(figure.title, sweep, csv_path(outdir, figure.file));
  }

  // §5.4 weighting comparison (both schemes, C4 at ratio 10^1).
  {
    Table table({"heuristic", "weighting", "high", "medium", "low"});
    for (const HeuristicKind kind :
         {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
      for (const PriorityWeighting& scheme :
           {PriorityWeighting::w_1_5_10(), PriorityWeighting::w_1_10_100()}) {
        double low = 0.0;
        double medium = 0.0;
        double high = 0.0;
        EngineOptions options;
        options.weighting = scheme;
        options.eu = EUWeights::from_log10_ratio(1.0);
        for (const CaseResult& result :
             run_cases(cases, {kind, CostCriterion::kC4}, options)) {
          low += static_cast<double>(result.by_class[0]);
          medium += static_cast<double>(result.by_class[1]);
          high += static_cast<double>(result.by_class[2]);
        }
        const auto n = static_cast<double>(cases.scenarios.size());
        table.add_row({heuristic_name(kind), scheme.to_string(),
                       format_double(high / n, 2), format_double(medium / n, 2),
                       format_double(low / n, 2)});
      }
    }
    std::printf("=== §5.4 — weighting schemes ===\n%s\n", table.to_text().c_str());
    if (!outdir.empty()) table.write_csv_file(csv_path(outdir, "weighting"));
  }

  // Engine cost metrics: why the heuristics differ in execution cost (route
  // cache effectiveness, iteration and candidate volume). Not a paper
  // artifact — the observability layer's per-run accounting, averaged the
  // same way as the figures.
  {
    obs::MetricsRegistry merged;
    const Table table = scheduler_cost_table(cases, weighting,
                                             EUWeights::from_log10_ratio(1.0),
                                             paper_pairs(), &merged);
    std::printf("=== Engine cost metrics (all pairs, ratio 10^1) ===\n%s\n",
                table.to_text().c_str());
    if (!outdir.empty()) table.write_csv_file(csv_path(outdir, "engine_cost"));
    if (!metrics_out.empty()) {
      // write_metrics_document keeps the file a pure function of the merged
      // per-case registries — no wall-clock phase gauges, so the document is
      // byte-identical for any --jobs value.
      if (!observability.write_metrics_document(merged)) return 2;
      std::printf("(metrics JSON written to %s)\n\n", metrics_out.c_str());
    }
  }

  // §5.4 priority-first comparison (heuristics at their best ratio).
  {
    Table table({"scheduler", "best log10(E-U)", "value"});
    for (const HeuristicKind kind :
         {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
      double best = 0.0;
      double best_ratio = 0.0;
      for (const double ratio : axis) {
        const double value = average_pair_value(cases, weighting,
                                                {kind, CostCriterion::kC4},
                                                EUWeights::from_log10_ratio(ratio));
        if (value > best) {
          best = value;
          best_ratio = ratio;
        }
      }
      table.add_row({std::string(heuristic_name(kind)) + "/C4",
                     eu_axis_label(best_ratio), format_double(best, 1)});
    }
    table.add_row({"priority_first", "n/a",
                   format_double(average_priority_first(cases, weighting), 1)});
    std::printf("=== §5.4 — vs priority-first scheme ===\n%s\n",
                table.to_text().c_str());
    if (!outdir.empty()) table.write_csv_file(csv_path(outdir, "priority_first"));
  }

  std::printf("done.\n");
  return 0;
}
