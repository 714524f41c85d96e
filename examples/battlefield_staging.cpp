// The paper's motivating scenario (§1): stage battlefield data — terrain
// maps, enemy locations, troop movements, weather — from rear data centers
// through relays and satellite passes to forward-deployed units, under
// deadlines and command priorities, over an oversubscribed network.
//
// Compares all three heuristics (with C4) and the priority-first scheme on
// the same hand-modeled theater, and prints full staging reports.
//
//   $ ./battlefield_staging [--ratio=<log10 E-U>]
#include <cstdio>

#include "core/heuristics.hpp"
#include "core/bounds.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"

using namespace datastage;

namespace {

SimTime at_min(std::int64_t m) { return SimTime::zero() + SimDuration::minutes(m); }

Scenario build_theater() {
  Scenario s;
  s.horizon = at_min(120);
  s.gc_gamma = SimDuration::minutes(6);

  // 0 washington: main repository        1 ramstein: forward base
  // 2 carrier: naval relay               3 awacs: airborne relay
  // 4..6 units alpha/bravo/charlie: forward-deployed clients
  s.machines = {
      Machine{"washington", std::int64_t{64} << 30},
      Machine{"ramstein", std::int64_t{8} << 30},
      Machine{"carrier", std::int64_t{2} << 30},
      Machine{"awacs", std::int64_t{512} << 20},
      Machine{"unit-alpha", std::int64_t{128} << 20},
      Machine{"unit-bravo", std::int64_t{128} << 20},
      Machine{"unit-charlie", std::int64_t{64} << 20},
  };

  auto plink = [&](std::int32_t from, std::int32_t to, std::int64_t bw,
                   std::int64_t latency_ms) {
    s.phys_links.push_back(PhysicalLink{MachineId(from), MachineId(to), bw,
                                        SimDuration::milliseconds(latency_ms)});
    return static_cast<std::int32_t>(s.phys_links.size() - 1);
  };
  auto window = [&](std::int32_t p, std::int64_t from_min, std::int64_t to_min) {
    const PhysicalLink& pl = s.phys_links[static_cast<std::size_t>(p)];
    s.virt_links.push_back(VirtualLink{PhysLinkId(p), pl.bandwidth_bps,
                                       Interval{at_min(from_min), at_min(to_min)}});
  };

  // Terrestrial fiber Washington <-> Ramstein: fast, always on.
  window(plink(0, 1, 1'500'000, 60), 0, 120);
  window(plink(1, 0, 1'500'000, 60), 0, 120);
  // VSAT Washington -> carrier: two satellite passes.
  const std::int32_t w_car = plink(0, 2, 512'000, 400);
  window(w_car, 5, 35);
  window(w_car, 70, 100);
  // Ramstein -> carrier undersea relay: slower, always on.
  window(plink(1, 2, 256'000, 120), 0, 120);
  // Carrier -> AWACS uplink: hourly 15-minute passes.
  const std::int32_t car_aw = plink(2, 3, 384'000, 200);
  window(car_aw, 10, 25);
  window(car_aw, 65, 80);
  // Ramstein -> AWACS direct broadcast: always on but thin.
  window(plink(1, 3, 128'000, 150), 0, 120);
  // AWACS -> units: line-of-sight, always on within the horizon.
  window(plink(3, 4, 256'000, 80), 0, 120);
  window(plink(3, 5, 256'000, 80), 0, 120);
  window(plink(3, 6, 128'000, 80), 0, 120);
  // Carrier -> unit-alpha amphibious link: a single early window.
  window(plink(2, 4, 512'000, 100), 0, 45);
  // Return paths for strong connectivity (units report back through AWACS).
  window(plink(4, 3, 64'000, 80), 0, 120);
  window(plink(5, 3, 64'000, 80), 0, 120);
  window(plink(6, 3, 64'000, 80), 0, 120);
  window(plink(3, 2, 384'000, 200), 10, 25);
  window(plink(2, 0, 512'000, 400), 5, 35);

  constexpr std::int64_t kMB = 1 << 20;
  auto item = [&](const char* name, std::int64_t mb, std::int32_t source,
                  std::int64_t available_min) -> DataItem& {
    DataItem d;
    d.name = name;
    d.size_bytes = mb * kMB;
    d.sources = {SourceLocation{MachineId(source), at_min(available_min)}};
    s.items.push_back(std::move(d));
    return s.items.back();
  };
  auto request = [&](DataItem& d, std::int32_t dest, std::int64_t deadline_min,
                     Priority priority) {
    d.requests.push_back(Request{MachineId(dest), at_min(deadline_min), priority});
  };

  DataItem& terrain = item("terrain-maps", 40, 0, 0);
  request(terrain, 4, 60, kPriorityHigh);
  request(terrain, 5, 75, kPriorityMedium);
  DataItem& enemy = item("enemy-locations", 6, 0, 5);
  request(enemy, 4, 30, kPriorityHigh);
  request(enemy, 5, 30, kPriorityHigh);
  request(enemy, 6, 45, kPriorityMedium);
  DataItem& weather = item("weather-0600", 12, 1, 10);
  request(weather, 4, 55, kPriorityMedium);
  request(weather, 6, 90, kPriorityLow);
  DataItem& troops = item("troop-movements", 18, 0, 15);
  request(troops, 5, 70, kPriorityHigh);
  request(troops, 6, 70, kPriorityLow);
  DataItem& orders = item("air-tasking-orders", 2, 1, 20);
  request(orders, 4, 35, kPriorityHigh);
  request(orders, 5, 35, kPriorityHigh);
  request(orders, 6, 35, kPriorityHigh);
  DataItem& logistics = item("logistics-manifest", 30, 1, 0);
  request(logistics, 6, 100, kPriorityLow);
  DataItem& imagery = item("satellite-imagery", 80, 0, 25);
  request(imagery, 4, 110, kPriorityMedium);
  request(imagery, 5, 110, kPriorityLow);

  s.check_valid();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (!flags.parse(argc, argv, {"ratio"})) return 1;
  const double ratio = flags.get_double("ratio", 1.0);

  const Scenario theater = build_theater();
  const PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  const BoundsReport bounds = compute_bounds(theater, weighting);

  std::printf("Theater: %zu machines, %zu physical links, %zu requests\n",
              theater.machine_count(), theater.phys_links.size(),
              theater.request_count());
  std::printf("upper_bound=%.0f  possible_satisfy=%.0f\n\n", bounds.upper_bound,
              bounds.possible_satisfy);

  EngineOptions options;
  options.weighting = weighting;
  options.eu = EUWeights::from_log10_ratio(ratio);

  StagingResult best;
  std::string best_name;
  double best_value = -1.0;

  for (const HeuristicKind kind :
       {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
    const SchedulerSpec spec{kind, CostCriterion::kC4};
    StagingResult result = run_spec(spec, theater, options);
    const double value = weighted_value(theater, weighting, result.outcomes);
    std::printf("%-12s value=%6.1f  satisfied=%2zu/%zu  steps=%zu  dijkstra=%zu\n",
                spec.name().c_str(), value, satisfied_count(result.outcomes),
                theater.request_count(), result.schedule.size(),
                result.dijkstra_runs);
    if (value > best_value) {
      best_value = value;
      best = std::move(result);
      best_name = spec.name();
    }
  }
  {
    const StagingResult result = run_priority_first(theater, weighting);
    std::printf("%-12s value=%6.1f  satisfied=%2zu/%zu  steps=%zu\n\n",
                "prio_first",
                weighted_value(theater, weighting, result.outcomes),
                satisfied_count(result.outcomes), theater.request_count(),
                result.schedule.size());
  }

  std::printf("Best scheduler: %s\n\nSchedule:\n%s\n", best_name.c_str(),
              schedule_trace(theater, best.schedule).c_str());
  std::printf("Requests:\n%s\n", request_report(theater, best.outcomes).to_text().c_str());
  std::printf("Link utilization:\n%s\n",
              link_utilization(theater, best.schedule).to_text().c_str());
  std::printf("Storage:\n%s\n", storage_summary(theater, best.schedule).to_text().c_str());

  const SimReport report = simulate(theater, best.schedule);
  std::printf("simulator replay: %s\n", report.ok ? "clean" : "CONSTRAINT VIOLATION");
  return report.ok ? 0 : 1;
}
