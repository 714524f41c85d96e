// Persistence and inspection workflow: generate a scenario, schedule it,
// save both artifacts, reload them, verify the schedule independently, and
// render every inspection view the library offers (request report, link
// utilization, storage summary, ASCII Gantt, Graphviz topology, metrics).
//
//   $ ./replay_and_inspect [--seed=N] [--dir=PATH]
#include <cstdio>
#include <filesystem>

#include "common_flags.hpp"
#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "core/schedule_io.hpp"
#include "gen/generator.hpp"
#include "model/describe.hpp"
#include "model/scenario_io.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"

using namespace datastage;

int main(int argc, char** argv) {
  CliFlags flags;
  if (!flags.parse(argc, argv, {"seed", "dir"})) return 1;

  const std::string dir = flags.get_string(
      "dir", (std::filesystem::temp_directory_path() / "datastage_inspect").string());
  std::filesystem::create_directories(dir);

  // 1. Generate and persist a scenario.
  GeneratorConfig config = GeneratorConfig::light();
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 21)));
  const Scenario scenario = generate_scenario(config, rng);
  const std::string scenario_path = dir + "/scenario.ds";
  save_scenario(scenario_path, scenario);
  std::printf("scenario written to %s\n", scenario_path.c_str());
  std::printf("\nProfile:\n%s\n", describe_table(describe(scenario)).to_text().c_str());

  // 2. Schedule and persist the plan.
  // C5: the tuning-free extension.
  const StagingResult result =
      run_spec({HeuristicKind::kFullOne, CostCriterion::kC5}, scenario, EngineOptions{});
  const std::string schedule_path = dir + "/plan.dss";
  save_schedule(schedule_path, result.schedule);
  std::printf("schedule written to %s (%zu transfers)\n\n", schedule_path.c_str(),
              result.schedule.size());

  // 3. Reload both from disk and verify independently.
  std::string error;
  const auto loaded_scenario = load_scenario(scenario_path, &error);
  if (!loaded_scenario.has_value()) {
    std::fprintf(stderr, "reload failed: %s\n", error.c_str());
    return 1;
  }
  const auto loaded_schedule = load_schedule(schedule_path, &error);
  if (!loaded_schedule.has_value()) {
    std::fprintf(stderr, "reload failed: %s\n", error.c_str());
    return 1;
  }
  const SimReport replay = simulate(*loaded_scenario, *loaded_schedule);
  std::printf("replay of reloaded artifacts: %s\n\n",
              replay.ok ? "clean" : "CONSTRAINT VIOLATION");
  if (!replay.ok) return 1;

  // 4. Inspect.
  std::printf("Metrics:\n%s\n",
              metrics_table(compute_metrics(*loaded_scenario,
                                            PriorityWeighting::w_1_10_100(), result))
                  .to_text()
                  .c_str());
  std::printf("Link utilization (top of table):\n");
  const std::string util =
      link_utilization(*loaded_scenario, *loaded_schedule).to_text();
  std::printf("%.600s...\n\n", util.c_str());
  std::printf("Link activity Gantt (first 12 links):\n");
  const std::string gantt = link_gantt(*loaded_scenario, *loaded_schedule, 64);
  std::size_t lines = 0;
  for (std::size_t pos = 0; pos < gantt.size() && lines < 12; ++pos) {
    std::putchar(gantt[pos]);
    if (gantt[pos] == '\n') ++lines;
  }
  std::printf("...\n");

  const std::string dot_path = dir + "/topology.dot";
  std::FILE* dot = toolflags::open_output_cfile(dot_path, "topology graph");
  if (dot != nullptr) {
    std::fputs(topology_dot(*loaded_scenario).c_str(), dot);
    std::fclose(dot);
    std::printf("\ntopology graph written to %s (render: dot -Tsvg)\n",
                dot_path.c_str());
  }
  return 0;
}
