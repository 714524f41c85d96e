// The residual world one submit is served from, against the unshared path.
//
// DynamicStager keeps its residual problem between calls and patches it for
// a request or a cancel; SchedulerService runs its quick estimate on that
// world through a NetworkState that adopts the world's storage timelines.
// These tests check both against rebuilding everything from scratch:
//   * the world (built or patched) equals residual_scenario(), its Topology,
//     and a NetworkState swept from it, field for field — with and without a
//     new-item probe appended;
//   * the service reaches the same decisions, planned arrivals and final
//     schedule as a reference loop over residual_scenario(),
//     quick_admission_estimate(const Scenario&, ...) and on_event, on a
//     stream that takes every world path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dynamic/events.hpp"
#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "serve/admission.hpp"
#include "serve/scheduler_service.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

constexpr SchedulerSpec kFullOneC4{HeuristicKind::kFullOne, CostCriterion::kC4};

EngineOptions c4_options() {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  return options;
}

/// Congested cases at a size the test suite can replan a few hundred times.
std::vector<Scenario> congested_cases(std::uint64_t seed, std::size_t count) {
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 8;
  return generate_cases(config, seed, count);
}

/// The serve_congested split (testing::split_online) of `batch`, drawn from
/// `seed`, as submits.
std::vector<SubmitRequest> split_online(Scenario& batch, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SubmitRequest> submits;
  for (testing::OnlineRequest& online : testing::split_online(batch, rng)) {
    SubmitRequest submit;
    submit.item_name = std::move(online.item);
    submit.request = online.request;
    submit.at = online.at;
    submits.push_back(std::move(submit));
  }
  return submits;
}

void expect_same_scenario(const Scenario& a, const Scenario& b) {
  ASSERT_EQ(a.machine_count(), b.machine_count());
  ASSERT_EQ(a.phys_links.size(), b.phys_links.size());
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.gc_gamma, b.gc_gamma);
  ASSERT_EQ(a.virt_links.size(), b.virt_links.size());
  for (std::size_t v = 0; v < a.virt_links.size(); ++v) {
    EXPECT_EQ(a.virt_links[v].phys, b.virt_links[v].phys);
    EXPECT_EQ(a.virt_links[v].bandwidth_bps, b.virt_links[v].bandwidth_bps);
    EXPECT_EQ(a.virt_links[v].window, b.virt_links[v].window);
  }
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const DataItem& x = a.items[i];
    const DataItem& y = b.items[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.size_bytes, y.size_bytes);
    ASSERT_EQ(x.sources.size(), y.sources.size()) << x.name;
    for (std::size_t k = 0; k < x.sources.size(); ++k) {
      EXPECT_EQ(x.sources[k].machine, y.sources[k].machine);
      EXPECT_EQ(x.sources[k].available_at, y.sources[k].available_at);
      EXPECT_EQ(x.sources[k].hold_until, y.sources[k].hold_until);
    }
    EXPECT_EQ(x.resolved_deadline, y.resolved_deadline) << x.name;
    ASSERT_EQ(x.requests.size(), y.requests.size()) << x.name;
    for (std::size_t k = 0; k < x.requests.size(); ++k) {
      EXPECT_EQ(x.requests[k].destination, y.requests[k].destination);
      EXPECT_EQ(x.requests[k].deadline, y.requests[k].deadline);
      EXPECT_EQ(x.requests[k].priority, y.requests[k].priority);
    }
  }
}

void expect_same_topology(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.machine_count(), b.machine_count());
  for (std::size_t m = 0; m < a.machine_count(); ++m) {
    const MachineId machine(static_cast<std::int32_t>(m));
    EXPECT_EQ(a.out_degree(machine), b.out_degree(machine));
    const auto x = a.receivers(machine);
    const auto y = b.receivers(machine);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t g = 0; g < x.size(); ++g) {
      EXPECT_EQ(x[g].to, y[g].to);
      const auto ex = a.edges(x[g]);
      const auto ey = b.edges(y[g]);
      ASSERT_EQ(ex.size(), ey.size());
      for (std::size_t e = 0; e < ex.size(); ++e) {
        EXPECT_EQ(ex[e].window, ey[e].window);
        EXPECT_EQ(ex[e].bandwidth_bps, ey[e].bandwidth_bps);
        EXPECT_EQ(ex[e].latency, ey[e].latency);
        EXPECT_EQ(ex[e].link, ey[e].link);
      }
    }
  }
}

/// Storage timelines (breakpoints, peak, capacity), copies and holds of two
/// states over one scenario.
void expect_same_state(const NetworkState& a, const NetworkState& b) {
  const Scenario& scenario = a.scenario();
  for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
    const MachineId machine(static_cast<std::int32_t>(m));
    EXPECT_TRUE(a.storage(machine) == b.storage(machine)) << "machine " << m;
  }
  for (std::size_t i = 0; i < scenario.item_count(); ++i) {
    const ItemId item(static_cast<std::int32_t>(i));
    ASSERT_EQ(a.copies(item).size(), b.copies(item).size());
    for (std::size_t c = 0; c < a.copies(item).size(); ++c) {
      EXPECT_EQ(a.copies(item)[c].machine, b.copies(item)[c].machine);
      EXPECT_EQ(a.copies(item)[c].available_at, b.copies(item)[c].available_at);
    }
    for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
      const MachineId machine(static_cast<std::int32_t>(m));
      EXPECT_EQ(a.hold_begin(item, machine), b.hold_begin(item, machine));
      EXPECT_EQ(a.is_destination(item, machine), b.is_destination(item, machine));
    }
  }
}

/// The stager's world against a rebuild of everything from scratch.
void expect_world_matches_rebuild(DynamicStager& stager) {
  const ResidualWorld& world = stager.residual_world();
  const Scenario rebuilt = stager.residual_scenario();
  expect_same_scenario(world.scenario, rebuilt);
  expect_same_topology(world.topology, Topology(rebuilt));
  expect_same_state(NetworkState(world.scenario, world.storage), NetworkState(world.scenario));
}

TEST(ResidualWorldTest, WorldEqualsRebuildWhetherBuiltOrPatched) {
  std::size_t checked = 0;
  std::size_t probes = 0;
  std::size_t shortened_holds = 0;
  for (std::uint64_t seed : {3u, 11u}) {
    for (Scenario batch : congested_cases(seed, 2)) {
      const std::vector<SubmitRequest> submits = split_online(batch, seed);
      DynamicStager stager(batch, kFullOneC4, c4_options());
      for (const SubmitRequest& submit : submits) {
        if (submit.at > stager.now()) stager.advance_to(submit.at);
        const MachineId dest = submit.request.destination;
        if (!stager.planned_arrival(submit.item_name, dest).is_infinite()) continue;
        expect_world_matches_rebuild(stager);

        // A brand-new item probed on top of the world: adopted timelines
        // plus the probe's charges equal a sweep of the probed residual.
        DataItem probe;
        probe.name = "probe";
        probe.size_bytes = 4096;
        probe.sources.push_back(SourceLocation{MachineId(0), stager.now()});
        const ResidualWorld& world = stager.residual_world();
        if (new_item_sources_fit(world.storage, probe)) {
          Scenario probed = world.scenario;
          std::vector<StorageTimeline> storage = world.storage;
          append_probe_item(probed, storage, probe);
          expect_same_state(NetworkState(probed, storage), NetworkState(probed));
          ++probes;
        }

        stager.on_event({submit.at, NewRequestEvent{submit.item_name, submit.request}});
        expect_world_matches_rebuild(stager);
        ++checked;
        if (stager.request_status(submit.item_name, dest) == DynamicRequestStatus::kPending &&
            stager.planned_arrival(submit.item_name, dest) > submit.request.deadline) {
          // A withdrawal patches its world, unless it lowers the gc time of an
          // item that holds relay copies: their hold windows shrink. The
          // request is the residual item's last.
          const Scenario& residual = stager.residual_world().scenario;
          const ItemId id = stager.item_id(submit.item_name);
          const auto& sources = residual.item(id).sources;
          const bool relays =
              std::any_of(sources.begin(), sources.end(),
                          [](const SourceLocation& src) { return !src.hold_until.is_infinite(); });
          const auto last = static_cast<std::int32_t>(residual.item(id).requests.size()) - 1;
          const bool shortened = relays && residual.gc_time(id, last) < residual.gc_time(id);
          shortened_holds += shortened ? 1 : 0;
          const std::size_t builds = stager.residual_builds();
          stager.on_event({submit.at, CancelRequestEvent{submit.item_name, dest}});
          EXPECT_EQ(stager.residual_builds(), builds + (shortened ? 1 : 0))
              << "a withdrawal patches its world unless it shortens relay holds";
          expect_world_matches_rebuild(stager);
        }
      }
      EXPECT_GT(stager.world_patches(), 0u);
      EXPECT_GT(stager.residual_builds(), 1u);
    }
  }
  EXPECT_GT(checked, 50u);
  EXPECT_GT(probes, 0u);
  EXPECT_GT(shortened_holds, 0u);
}

// ---------------------------------------------------------------------------
// The service against the unshared reference loop.

struct Verdict {
  AdmissionOutcome outcome;
  SimTime planned_arrival;
  SimTime quick_arrival;
  bool replanned = false;         ///< the request reached the stager
  bool resolved_on_spot = false;  ///< closed by the request event itself
  bool gc_extended = false;       ///< later than every known deadline of its item
  bool withdrawn = false;         ///< full reject with a cancel
};

struct ReferenceRun {
  std::vector<Verdict> verdicts;
  DynamicResult result;
};

/// What perfbench's traced pass does, plus new items and faults: every call
/// builds its own residual, topology and state.
ReferenceRun run_reference(const Scenario& batch, const std::vector<SubmitRequest>& submits,
                           std::vector<StagingEvent> faults) {
  ReferenceRun run;
  const EngineOptions options = c4_options();
  DynamicStager stager(batch, kFullOneC4, options);
  // Latest deadline the stager knows per item: its gc time minus γ.
  std::map<std::string, SimTime> latest;
  for (const DataItem& item : batch.items) {
    for (const Request& r : item.requests) {
      latest[item.name] = max(latest[item.name], r.deadline);
    }
  }
  sort_staging_events(faults);
  std::size_t next_fault = 0;
  for (const SubmitRequest& submit : submits) {
    while (next_fault < faults.size() && faults[next_fault].at <= submit.at) {
      stager.on_event(faults[next_fault++]);
    }
    if (submit.at > stager.now()) stager.advance_to(submit.at);

    Scenario residual = stager.residual_scenario();
    if (submit.new_item.has_value()) {
      DataItem probe = *submit.new_item;
      probe.requests.clear();
      residual.items.push_back(std::move(probe));
    }
    const QuickEstimate estimate = quick_admission_estimate(
        residual, submit.item_name, submit.request, options.weighting);
    Verdict verdict{AdmissionOutcome::kQuickReject, SimTime::infinity(),
                    estimate.earliest_arrival};
    if (estimate.feasible) {
      verdict.replanned = true;
      if (submit.new_item.has_value()) {
        DataItem item = *submit.new_item;
        item.requests.clear();
        stager.on_event({submit.at, NewItemEvent{std::move(item)}});
      }
      SimTime& known = latest[submit.item_name];
      verdict.gc_extended = submit.request.deadline > known;
      known = max(known, submit.request.deadline);
      stager.on_event({submit.at, NewRequestEvent{submit.item_name, submit.request}});
      const MachineId dest = submit.request.destination;
      const DynamicRequestStatus status = stager.request_status(submit.item_name, dest);
      verdict.resolved_on_spot = status != DynamicRequestStatus::kPending;
      switch (status) {
        case DynamicRequestStatus::kSatisfied:
          verdict.outcome = AdmissionOutcome::kAlreadySatisfied;
          verdict.planned_arrival = stager.planned_arrival(submit.item_name, dest);
          break;
        case DynamicRequestStatus::kPending: {
          const SimTime arrival = stager.planned_arrival(submit.item_name, dest);
          if (!arrival.is_infinite() && arrival <= submit.request.deadline) {
            verdict.outcome = AdmissionOutcome::kAdmitted;
            verdict.planned_arrival = arrival;
          } else {
            stager.on_event({submit.at, CancelRequestEvent{submit.item_name, dest}});
            verdict.withdrawn = true;
            verdict.outcome = AdmissionOutcome::kFullReject;
          }
          break;
        }
        default:
          verdict.outcome = AdmissionOutcome::kFullReject;
          break;
      }
    }
    run.verdicts.push_back(verdict);
  }
  while (next_fault < faults.size()) stager.on_event(faults[next_fault++]);
  run.result = stager.finish();
  return run;
}

TEST(ResidualWorldTest, ServiceMatchesUnsharedReferenceOnEveryWorldPath) {
  // How the service's world served each replanned submit of a known item.
  std::size_t patched = 0;
  std::size_t gc_extended = 0;
  std::size_t resolved_on_spot = 0;
  std::size_t gc_erased = 0;  // rebuilt for none of the reasons above
  std::size_t withdrawals = 0;
  std::size_t new_items = 0;
  std::size_t outages = 0;
  for (std::uint64_t seed : {5u, 17u}) {
    for (Scenario batch : congested_cases(seed, 2)) {
      std::vector<SubmitRequest> submits = split_online(batch, seed);
      ASSERT_GT(submits.size(), 10u);
      // A brand-new item a third of the way in, and an outage (with its
      // restore) on the first link in the middle of the stream.
      const SimTime mid = submits[submits.size() / 2].at;
      SubmitRequest fresh;
      fresh.at = submits[submits.size() / 3].at;
      fresh.item_name = "fresh";
      fresh.request = Request{MachineId(1), fresh.at + SimDuration::hours(1), kPriorityHigh};
      DataItem item;
      item.name = "fresh";
      item.size_bytes = 4096;
      item.sources.push_back(SourceLocation{MachineId(0), fresh.at});
      fresh.new_item = item;
      submits.insert(submits.begin() + static_cast<std::ptrdiff_t>(submits.size() / 3),
                     fresh);
      const std::vector<StagingEvent> faults{
          {mid, LinkOutageEvent{PhysLinkId(0)}},
          {mid + SimDuration::minutes(10), LinkRestoreEvent{PhysLinkId(0)}}};

      const ReferenceRun reference = run_reference(batch, submits, faults);

      ServiceOptions options;
      options.spec = kFullOneC4;
      options.engine = c4_options();
      options.fault_events = faults;
      SchedulerService service(batch, options);
      SimTime previous = SimTime::zero();
      for (std::size_t s = 0; s < submits.size(); ++s) {
        const SubmitRequest& submit = submits[s];
        const std::size_t patches_before = service.snapshot().world_patches;
        const AdmissionDecision decision = service.submit(submit);
        const Verdict& expected = reference.verdicts[s];
        ASSERT_EQ(decision.outcome, expected.outcome) << "submit " << s;
        EXPECT_EQ(decision.planned_arrival, expected.planned_arrival) << "submit " << s;
        EXPECT_EQ(decision.quick_arrival, expected.quick_arrival) << "submit " << s;

        bool faulted = false;
        for (const StagingEvent& fault : faults) {
          faulted |= fault.at > previous && fault.at <= submit.at;
        }
        outages += faulted ? 1 : 0;
        previous = submit.at;
        withdrawals += expected.withdrawn ? 1 : 0;
        if (!expected.replanned) continue;
        if (submit.new_item.has_value()) {
          ++new_items;
          continue;
        }
        const std::size_t patches = service.snapshot().world_patches - patches_before;
        const bool request_patched = patches > (expected.withdrawn ? 1u : 0u);
        EXPECT_EQ(patches, (request_patched ? 1u : 0u) + (expected.withdrawn ? 1u : 0u))
            << "submit " << s << ": a withdrawal patches its world";
        if (request_patched) {
          EXPECT_FALSE(expected.resolved_on_spot || expected.gc_extended) << "submit " << s;
          ++patched;
        } else if (expected.resolved_on_spot) {
          ++resolved_on_spot;
        } else if (expected.gc_extended) {
          ++gc_extended;
        } else if (!faulted) {
          ++gc_erased;
        }
      }
      const ServiceSnapshot snap = service.snapshot();
      EXPECT_LE(snap.topology_builds, 1 + snap.submits + faults.size())
          << "at most one topology per submit";
      const DynamicResult result = service.finish();
      ASSERT_EQ(result.schedule.size(), reference.result.schedule.size());
      EXPECT_TRUE(std::equal(result.schedule.steps().begin(), result.schedule.steps().end(),
                             reference.result.schedule.steps().begin()));
      ASSERT_EQ(result.requests.size(), reference.result.requests.size());
      for (std::size_t r = 0; r < result.requests.size(); ++r) {
        EXPECT_EQ(result.requests[r].item_name, reference.result.requests[r].item_name);
        EXPECT_EQ(result.requests[r].destination, reference.result.requests[r].destination);
        EXPECT_EQ(result.requests[r].satisfied, reference.result.requests[r].satisfied);
        EXPECT_EQ(result.requests[r].cancelled, reference.result.requests[r].cancelled);
        EXPECT_EQ(result.requests[r].arrival, reference.result.requests[r].arrival);
      }
    }
  }
  EXPECT_GT(patched, 0u);
  EXPECT_GT(gc_extended, 0u);
  EXPECT_GT(resolved_on_spot, 0u);
  // Garbage collection runs when the clock moves, before stage 1 builds the
  // world, so no replan finds copies erased since that build.
  EXPECT_EQ(gc_erased, 0u);
  EXPECT_GT(withdrawals, 0u);
  EXPECT_GT(new_items, 0u);
  EXPECT_GT(outages, 0u);
}

}  // namespace
}  // namespace datastage
