// Dynamic data staging (the paper's §6 future work): the world changes while
// the schedule is executing — a satellite link drops mid-transfer, an ad-hoc
// request arrives from the field, a fresh intelligence item appears — and
// the stager replans everything not yet committed after every event.
//
//   $ ./dynamic_replanning
#include <cstdio>

#include "dynamic/stager.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

using namespace datastage;

namespace {

SimTime at_min(std::int64_t m) { return SimTime::zero() + SimDuration::minutes(m); }

Scenario build_world() {
  Scenario s;
  s.horizon = at_min(120);
  s.gc_gamma = SimDuration::minutes(6);
  s.machines = {
      Machine{"hq", std::int64_t{16} << 30},
      Machine{"relay", std::int64_t{2} << 30},
      Machine{"field-a", std::int64_t{256} << 20},
      Machine{"field-b", std::int64_t{256} << 20},
  };
  auto plink = [&](std::int32_t from, std::int32_t to, std::int64_t bw) {
    s.phys_links.push_back(
        PhysicalLink{MachineId(from), MachineId(to), bw, SimDuration::milliseconds(100)});
    return static_cast<std::int32_t>(s.phys_links.size() - 1);
  };
  auto window = [&](std::int32_t p, std::int64_t a, std::int64_t b) {
    const PhysicalLink& pl = s.phys_links[static_cast<std::size_t>(p)];
    s.virt_links.push_back(VirtualLink{PhysLinkId(p), pl.bandwidth_bps,
                                       Interval{at_min(a), at_min(b)}});
  };
  window(plink(0, 1, 1'000'000), 0, 120);   // hq -> relay backbone
  window(plink(1, 2, 512'000), 0, 120);     // relay -> field-a
  window(plink(1, 3, 512'000), 0, 120);     // relay -> field-b
  window(plink(0, 2, 128'000), 0, 120);     // thin direct hq -> field-a backup

  DataItem maps;
  maps.name = "terrain-maps";
  maps.size_bytes = 24 << 20;
  maps.sources = {SourceLocation{MachineId(0), SimTime::zero()}};
  maps.requests = {Request{MachineId(2), at_min(45), kPriorityHigh},
                   Request{MachineId(3), at_min(60), kPriorityMedium}};
  s.items.push_back(maps);

  DataItem weather;
  weather.name = "weather";
  weather.size_bytes = 4 << 20;
  weather.sources = {SourceLocation{MachineId(0), at_min(5)}};
  weather.requests = {Request{MachineId(2), at_min(40), kPriorityMedium}};
  s.items.push_back(weather);

  s.check_valid();
  return s;
}

}  // namespace

int main() {
  const Scenario world = build_world();
  DynamicStager stager(world, {HeuristicKind::kFullOne, CostCriterion::kC4},
                       [] {
                         EngineOptions options;
                         options.eu = EUWeights::from_log10_ratio(1.0);
                         return options;
                       }());

  std::printf("t=00:00  initial plan computed (replan #%zu)\n", stager.replans());

  // 00:12 — the relay->field-a link goes down (jamming).
  stager.on_event(StagingEvent{at_min(12), LinkOutageEvent{PhysLinkId(1)}});
  std::printf("t=00:12  relay->field-a OUTAGE, replanned (replan #%zu)\n",
              stager.replans());

  // 00:20 — field-b urgently needs the weather data too.
  stager.on_event(StagingEvent{
      at_min(20),
      NewRequestEvent{"weather", Request{MachineId(3), at_min(55), kPriorityHigh}}});
  std::printf("t=00:20  ad-hoc request: weather -> field-b (replan #%zu)\n",
              stager.replans());

  // 00:25 — the jammed link comes back.
  stager.on_event(StagingEvent{at_min(25), LinkRestoreEvent{PhysLinkId(1)}});
  std::printf("t=00:25  relay->field-a RESTORED (replan #%zu)\n", stager.replans());

  // 00:30 — fresh drone imagery appears at the relay.
  DataItem imagery;
  imagery.name = "drone-imagery";
  imagery.size_bytes = 10 << 20;
  imagery.sources = {SourceLocation{MachineId(1), at_min(30)}};
  imagery.requests = {Request{MachineId(2), at_min(75), kPriorityHigh},
                      Request{MachineId(3), at_min(75), kPriorityLow}};
  stager.on_event(StagingEvent{at_min(30), NewItemEvent{std::move(imagery)}});
  std::printf("t=00:30  new item: drone-imagery at relay (replan #%zu)\n\n",
              stager.replans());

  const Scenario effective = stager.effective_scenario();
  const DynamicResult result = stager.finish();

  std::printf("Final schedule (%zu transfers):\n%s\n", result.schedule.size(),
              schedule_trace(effective, result.schedule).c_str());

  std::printf("Requests:\n");
  for (const DynamicRequestRecord& record : result.requests) {
    std::printf("  %-14s -> %-8s %-7s deadline %s  %s%s\n",
                record.item_name.c_str(),
                effective.machine(record.destination).name.c_str(),
                priority_name(record.priority).c_str(),
                record.deadline.to_string().c_str(),
                record.satisfied ? "satisfied @ " : "NOT satisfied",
                record.satisfied ? record.arrival.to_string().c_str() : "");
  }
  std::printf("\nweighted value: %.1f (satisfied %zu/%zu), %zu replans\n",
              result.weighted_value(PriorityWeighting::w_1_10_100()),
              result.satisfied_count(), result.requests.size(), result.replans);

  const SimReport replay = simulate(effective, result.schedule);
  std::printf("replay against effective availability: %s\n",
              replay.ok ? "clean" : "CONSTRAINT VIOLATION");
  return replay.ok ? 0 : 1;
}
