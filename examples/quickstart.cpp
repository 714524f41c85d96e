// Quickstart: build a small data-staging problem by hand, schedule it with
// the full path/one destination heuristic under cost criterion C4, and print
// what happened.
//
//   $ ./quickstart
#include <cstdio>

#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

using namespace datastage;

int main() {
  // --- 1. Describe the communication system -------------------------------
  Scenario scenario;
  scenario.horizon = SimTime::zero() + SimDuration::hours(2);
  scenario.gc_gamma = SimDuration::minutes(6);

  // Three machines: a data server, a relay, and a forward client.
  scenario.machines = {
      Machine{"server", std::int64_t{4} << 30},
      Machine{"relay", std::int64_t{1} << 30},
      Machine{"client", std::int64_t{256} << 20},
  };

  // One physical link per hop; the relay->client link is a satellite pass
  // that is only up during two windows.
  scenario.phys_links = {
      PhysicalLink{MachineId(0), MachineId(1), 1'500'000, SimDuration::milliseconds(40)},
      PhysicalLink{MachineId(1), MachineId(2), 512'000, SimDuration::milliseconds(250)},
  };
  const Interval always{SimTime::zero(), scenario.horizon};
  auto window = [&](std::int32_t phys, SimTime a, SimTime b) {
    const PhysicalLink& pl = scenario.phys_links[static_cast<std::size_t>(phys)];
    scenario.virt_links.push_back(VirtualLink{PhysLinkId(phys), pl.bandwidth_bps,
                                              Interval{a, b}});
  };
  window(0, always.begin, always.end);
  window(1, SimTime::zero() + SimDuration::minutes(5),
         SimTime::zero() + SimDuration::minutes(20));
  window(1, SimTime::zero() + SimDuration::minutes(50),
         SimTime::zero() + SimDuration::minutes(65));

  // --- 2. Describe the data and who needs it ------------------------------
  DataItem weather;
  weather.name = "weather-map";
  weather.size_bytes = 8 * 1024 * 1024;
  weather.sources = {SourceLocation{MachineId(0), SimTime::zero()}};
  weather.requests = {Request{MachineId(2),
                              SimTime::zero() + SimDuration::minutes(30),
                              kPriorityHigh}};
  scenario.items.push_back(weather);

  DataItem terrain;
  terrain.name = "terrain-tiles";
  terrain.size_bytes = 24 * 1024 * 1024;
  terrain.sources = {SourceLocation{MachineId(0), SimTime::zero() + SimDuration::minutes(2)}};
  terrain.requests = {Request{MachineId(2),
                              SimTime::zero() + SimDuration::minutes(70),
                              kPriorityMedium}};
  scenario.items.push_back(terrain);

  scenario.check_valid();

  // --- 3. Schedule ---------------------------------------------------------
  EngineOptions options;
  options.eu = EUWeights::from_log10_ratio(1.0);
  const StagingResult result =
      run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, scenario, options);

  // --- 4. Inspect ----------------------------------------------------------
  std::printf("Schedule:\n%s\n", schedule_trace(scenario, result.schedule).c_str());
  std::printf("Requests:\n%s\n",
              request_report(scenario, result.outcomes).to_text().c_str());

  std::printf("Link activity:\n%s\n", link_gantt(scenario, result.schedule).c_str());
  std::printf("Metrics:\n%s\n",
              metrics_table(compute_metrics(scenario, PriorityWeighting::w_1_10_100(),
                                            result))
                  .to_text()
                  .c_str());

  // --- 5. Verify independently --------------------------------------------
  const SimReport report = simulate(scenario, result.schedule);
  std::printf("simulator replay: %s\n", report.ok ? "clean" : "CONSTRAINT VIOLATION");
  return report.ok ? 0 : 1;
}
