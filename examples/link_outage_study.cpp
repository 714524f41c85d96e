// Link-outage study: how schedule quality degrades as satellite availability
// shrinks. Generates one paper-shaped scenario, then progressively reduces
// every virtual-link window and reschedules — the static-model analogue of
// the dynamic outages the paper's future work targets, and a demonstration of
// why intermediates keep copies for γ after the last deadline (§4.4).
//
//   $ ./link_outage_study [--seed=N] [--requests=N]
#include <cstdio>

#include "core/bounds.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "model/transforms.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace datastage;

int main(int argc, char** argv) {
  CliFlags flags;
  if (!flags.parse(argc, argv, {"seed", "requests"})) return 1;

  GeneratorConfig config;
  config.min_requests_per_machine =
      static_cast<std::int32_t>(flags.get_int("requests", 12));
  config.max_requests_per_machine = config.min_requests_per_machine;
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 99)));
  const Scenario base = generate_scenario(config, rng);
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();

  std::printf("Base scenario: %zu machines, %zu virtual links, %zu requests\n\n",
              base.machine_count(), base.virt_links.size(), base.request_count());

  Table table({"link availability %", "possible_satisfy", "full_one/C4 value",
               "satisfied", "schedule steps"});

  for (const double keep : {1.0, 0.8, 0.6, 0.4, 0.2}) {
    const Scenario degraded = scale_link_availability(base, keep);
    const BoundsReport bounds = compute_bounds(degraded, weighting);

    EngineOptions options;
    options.weighting = weighting;
    options.eu = EUWeights::from_log10_ratio(1.0);
    const StagingResult result =
        run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, degraded, options);
    const SimReport report = simulate(degraded, result.schedule);
    if (!report.ok) {
      std::fprintf(stderr, "replay failed: %s\n", report.issues.front().c_str());
      return 1;
    }
    table.add_row({format_double(100.0 * keep, 0),
                   format_double(bounds.possible_satisfy, 1),
                   format_double(weighted_value(degraded, weighting, result.outcomes), 1),
                   std::to_string(satisfied_count(result.outcomes)) + "/" +
                       std::to_string(degraded.request_count()),
                   std::to_string(result.schedule.size())});
  }

  std::printf("%s\n", table.to_text().c_str());
  std::printf("Shrinking satellite windows starves late transfers first; the "
              "weighted value\ndecays toward the high-priority core the "
              "heuristic protects.\n");
  return 0;
}
