// Figure 2: upper/lower bounds vs the best cost criterion (C4) for each of
// the three heuristics, across the E-U ratio axis (1,10,100 weighting).
//
// Paper series: upper_bound, possible_satisfy, partial, full_one, full_all,
// random_Dijkstra, single_Dij_random.
// With --minmax, additionally prints the per-case dispersion (min / max /
// stddev over the cases) of the three C4 series — the data the TR companion
// of the paper tabulates alongside Figure 2.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace datastage;
  benchtool::BenchSetup setup;
  const std::optional<CliFlags> flags =
      benchtool::parse_bench_flags(argc, argv, setup, {"minmax"});
  if (!flags) return 1;
  const bool want_minmax = flags->get_bool("minmax", false);
  benchtool::print_header(
      "Figure 2 — heuristics' best criterion (C4) vs upper and lower bounds",
      setup);

  const CaseSet cases = build_cases(setup.config);

  const std::vector<SchedulerSpec> pairs{
      {HeuristicKind::kPartial, CostCriterion::kC4},
      {HeuristicKind::kFullOne, CostCriterion::kC4},
      {HeuristicKind::kFullAll, CostCriterion::kC4},
  };
  SweepResult sweep =
      sweep_pairs(cases, setup.weighting, pairs, paper_eu_axis(), setup.verbose);

  const AveragedBounds bounds = average_bounds(cases, setup.weighting);
  add_flat_series(sweep, "upper_bound", bounds.upper_bound);
  add_flat_series(sweep, "possible_satisfy", bounds.possible_satisfy);
  add_flat_series(sweep, "random_Dijkstra",
                  average_random_dijkstra(cases, setup.weighting));
  add_flat_series(sweep, "single_Dij_random",
                  average_single_dijkstra_random(cases, setup.weighting));

  print_sweep("Weighted sum of satisfied priorities (mean over cases):", sweep,
              setup.csv_path);

  if (want_minmax) {
    Table dispersion({"series @ log10(E-U)", "mean", "min", "max", "stddev"});
    for (const SchedulerSpec& spec : pairs) {
      for (const double ratio : {0.0, 2.0}) {
        const ValueStats stats = pair_value_stats(
            cases, setup.weighting, spec, EUWeights::from_log10_ratio(ratio));
        dispersion.add_row({spec.name() + " @ " + eu_axis_label(ratio),
                            format_double(stats.mean, 1), format_double(stats.min, 1),
                            format_double(stats.max, 1),
                            format_double(stats.stddev, 1)});
      }
    }
    std::printf("Per-case dispersion (TR companion data):\n%s\n",
                dispersion.to_text().c_str());
  }
  return 0;
}
