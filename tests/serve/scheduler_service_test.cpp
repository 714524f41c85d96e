// SchedulerService: the two-stage admission path, cancellation, fault
// interleaving and the committed-value ledger.
#include "serve/scheduler_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "serve/admission.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

using testing::ScenarioBuilder;
using testing::at_min;
using testing::at_sec;
using testing::chain_scenario;

SubmitRequest submit_at(SimTime at, const std::string& item, std::int32_t dest,
                        SimTime deadline, Priority priority = kPriorityHigh) {
  SubmitRequest submit;
  submit.at = at;
  submit.item_name = item;
  submit.request = Request{MachineId(dest), deadline, priority};
  return submit;
}

TEST(SchedulerServiceTest, AdmitsFeasibleRequestWithPlanSummary) {
  // Chain A->B->C, 1 MB item at A, ~1 s per hop. A second request to B is
  // comfortably feasible.
  SchedulerService service(chain_scenario(), {});
  const AdmissionDecision decision =
      service.submit(submit_at(at_sec(0), "d0", 1, at_sec(600)));

  EXPECT_EQ(decision.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(decision.admitted());
  EXPECT_TRUE(decision.quick_checked);
  EXPECT_TRUE(decision.quick_feasible);
  EXPECT_FALSE(decision.quick_arrival.is_infinite());
  EXPECT_FALSE(decision.planned_arrival.is_infinite());
  EXPECT_LE(decision.quick_arrival, decision.planned_arrival)
      << "stage 1 is a lower bound on the committed arrival";
  EXPECT_GE(decision.replans, 1u);
  EXPECT_EQ(service.request_status("d0", MachineId(1)),
            DynamicRequestStatus::kPending);
}

TEST(SchedulerServiceTest, QuickRejectsInfeasibleDeadlineWithoutReplanning) {
  SchedulerService service(chain_scenario(), {});
  const std::size_t replans_before = service.snapshot().replans;
  // 1 ms deadline for a ~2 s double hop: infeasible even alone.
  const AdmissionDecision decision = service.submit(
      submit_at(at_sec(0), "d0", 2, SimTime::from_usec(1000), kPriorityLow));

  EXPECT_EQ(decision.outcome, AdmissionOutcome::kQuickReject);
  EXPECT_FALSE(decision.admitted());
  EXPECT_FALSE(decision.quick_feasible);
  EXPECT_EQ(decision.replans, 0u);
  EXPECT_EQ(service.snapshot().replans, replans_before)
      << "a quick reject must not touch the plan";
}

TEST(SchedulerServiceTest, QuickRejectForUnknownItem) {
  SchedulerService service(chain_scenario(), {});
  const AdmissionDecision decision =
      service.submit(submit_at(at_sec(0), "nope", 2, at_sec(600)));
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kQuickReject);
}

TEST(SchedulerServiceTest, FullRejectWithdrawsTheRequest) {
  // One 1 MB/s link A->B, two 10 MB items at A: one transfer takes 10 s and
  // only one can go first. The high-priority batch request (deadline 12 s)
  // wins the link; the online request (deadline 15 s) is alone-feasible
  // (10 s) but loses the contention — the second transfer lands at 20 s.
  // (d1's batch request targets an isolated machine — validation demands
  // one, and unreachable keeps it out of the contention under test.)
  const Scenario scenario = ScenarioBuilder()
                                .machine(1 << 30)
                                .machine(1 << 30)
                                .machine(1 << 30)
                                .link(0, 1, 8'000'000,
                                      Interval{at_sec(0), at_sec(3600)})
                                .item(10'000'000)
                                .source(0, at_sec(0))
                                .request(1, at_sec(12), kPriorityHigh)
                                .item(10'000'000)
                                .source(0, at_sec(0))
                                .request(2, at_sec(3600), kPriorityLow)
                                .horizon(at_sec(7200))
                                .build();
  SchedulerService service(scenario, {});
  const AdmissionDecision decision = service.submit(
      submit_at(at_sec(0), "d1", 1, at_sec(15), kPriorityLow));

  EXPECT_EQ(decision.outcome, AdmissionOutcome::kFullReject);
  EXPECT_TRUE(decision.quick_feasible)
      << "stage 1 alone-in-the-system must pass; only contention sinks it";
  // The reject withdrew the request: nothing outstanding remains.
  EXPECT_EQ(service.request_status("d1", MachineId(1)),
            DynamicRequestStatus::kCancelled);
  // And the batch request is still on track.
  EXPECT_EQ(service.request_status("d0", MachineId(1)),
            DynamicRequestStatus::kPending);
  EXPECT_LE(service.planned_arrival("d0", MachineId(1)), at_sec(12));
}

TEST(SchedulerServiceTest, AlreadySatisfiedWhenDestinationHoldsCopy) {
  SchedulerService service(chain_scenario(), {});
  // The source machine itself requests the item.
  const AdmissionDecision decision =
      service.submit(submit_at(at_sec(0), "d0", 0, at_sec(600)));
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kAlreadySatisfied);
  EXPECT_TRUE(decision.admitted());
  EXPECT_EQ(service.request_status("d0", MachineId(0)),
            DynamicRequestStatus::kSatisfied);
}

TEST(SchedulerServiceTest, CancelFreesTheSlotForResubmission) {
  SchedulerService service(chain_scenario(), {});
  const AdmissionDecision first =
      service.submit(submit_at(at_sec(0), "d0", 1, at_sec(600)));
  ASSERT_EQ(first.outcome, AdmissionOutcome::kAdmitted);

  // Cancel before the serving transfer starts — once a step's start passes,
  // it is committed and the request resolves on its arrival instead.
  EXPECT_TRUE(service.cancel(first.request, at_sec(0)));
  EXPECT_EQ(service.request_status(first.request), DynamicRequestStatus::kCancelled);
  const std::size_t replans = service.snapshot().replans;
  EXPECT_FALSE(service.cancel(first.request, at_sec(0)))
      << "second cancel is a no-op";
  EXPECT_EQ(service.snapshot().replans, replans) << "a no-op cancel does not replan";

  // The slot is free for a new lifecycle. By t=2 the batch d0->M2 transfer
  // has relayed a copy through M1, so the resubmission is satisfied on the
  // spot rather than planned afresh.
  const AdmissionDecision second =
      service.submit(submit_at(at_sec(2), "d0", 1, at_sec(600)));
  EXPECT_EQ(second.outcome, AdmissionOutcome::kAlreadySatisfied);
  EXPECT_TRUE(second.admitted());
  EXPECT_NE(second.request, first.request);
  EXPECT_EQ(service.request_status(first.request), DynamicRequestStatus::kCancelled)
      << "the first request keeps its own outcome";
  EXPECT_EQ(second.committed_value, 200.0) << "the cancelled request counts nothing";
}

TEST(SchedulerServiceTest, CancelWithdrawsItsOwnRequestAmongReopenedOnes) {
  // Two admitted requests for (d0, B): the first delivered at 1 s, the
  // second satisfied on the spot at 3 s. Losing B's copy at 5 s re-opens
  // both. Cancelling the first withdraws the first, not the newer one.
  ServiceOptions options;
  options.fault_events.push_back({at_sec(5), CopyLossEvent{"d0", MachineId(1)}});
  SchedulerService service(chain_scenario(), options);
  const AdmissionDecision first = service.submit(submit_at(at_sec(0), "d0", 1, at_sec(600)));
  ASSERT_EQ(first.outcome, AdmissionOutcome::kAdmitted);
  const AdmissionDecision second = service.submit(submit_at(at_sec(3), "d0", 1, at_sec(600)));
  ASSERT_EQ(second.outcome, AdmissionOutcome::kAlreadySatisfied);
  service.advance_to(at_sec(5));
  ASSERT_EQ(service.request_status(first.request), DynamicRequestStatus::kPending);
  ASSERT_EQ(service.request_status(second.request), DynamicRequestStatus::kPending);

  EXPECT_TRUE(service.cancel(first.request, at_sec(5)));
  EXPECT_EQ(service.request_status(first.request), DynamicRequestStatus::kCancelled);
  EXPECT_EQ(service.request_status(second.request), DynamicRequestStatus::kPending);
}

TEST(SchedulerServiceTest, StaleRelayCopyDoesNotAdmitASubmit) {
  // d0 relays through B at t=0 (arriving at 1 s) on its way to C; garbage
  // collection erases that relay at 36 min (deadline 30 min + γ). A submit
  // for B at 40 min due 0.5 s later cannot be met (the A->B hop takes 1 s):
  // the replan plans nothing to B, so it is rejected, with no arrival, in
  // either quick mode.
  for (const bool quick : {true, false}) {
    ServiceOptions options;
    options.quick_admission = quick;
    SchedulerService service(chain_scenario(), options);
    const SimTime at = at_min(40);
    const AdmissionDecision decision =
        service.submit(submit_at(at, "d0", 1, at + SimDuration::milliseconds(500)));
    EXPECT_EQ(decision.outcome, AdmissionOutcome::kFullReject) << "quick " << quick;
    EXPECT_TRUE(decision.planned_arrival.is_infinite()) << "quick " << quick;
    EXPECT_EQ(service.request_status(decision.request), DynamicRequestStatus::kCancelled)
        << "quick " << quick;
    EXPECT_EQ(service.snapshot().committed_value, 100.0) << "quick " << quick;
  }
}

TEST(SchedulerServiceTest, SubmitAtRelayThatCannotKeepTheCopyIsRejected) {
  // M1 relays d0 until its gc at minute 16 and receives d1's original copy
  // at minute 30, with room for one item at a time. A d0 request at M1
  // would need the relayed copy held forever next to d1's: it is rejected,
  // where the replan used to abort on "permanent copies must always fit".
  const Scenario s = ScenarioBuilder()
                         .machine(1 << 30).machine(1'500'000).machine(1 << 30)
                         .link(0, 1, 8'000'000, Interval{SimTime::zero(), at_min(5)})
                         .link(1, 2, 8'000'000, Interval{SimTime::zero(), at_min(120)})
                         .gamma(SimDuration::minutes(6))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(10))
                         .item(1'000'000)
                         .source(1, at_min(30))
                         .request(2, at_min(60))
                         .build();
  SchedulerService service(s, {});
  const AdmissionDecision decision =
      service.submit(submit_at(at_min(12), "d0", 1, at_min(60)));
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kFullReject);
  EXPECT_EQ(service.request_status("d0", MachineId(1)),
            DynamicRequestStatus::kUnsatisfied);
}

TEST(SchedulerServiceTest, SubmitAtFaultInstantSeesPostFaultWorld) {
  // The chain's first link fails at t=0 and never recovers. A submit at
  // exactly t=0 must be decided against the post-outage world (faults order
  // before arrivals at equal timestamps), before any copy could spread.
  ServiceOptions options;
  options.fault_events.push_back(
      {at_sec(0), LinkOutageEvent{PhysLinkId(0)}});
  SchedulerService service(chain_scenario(), options);

  const AdmissionDecision decision =
      service.submit(submit_at(at_sec(0), "d0", 1, at_sec(600)));
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kQuickReject)
      << "the only route to B died at the same instant";
  EXPECT_FALSE(decision.quick_feasible);
}

TEST(SchedulerServiceTest, CommittedValueTracksAdmissions) {
  SchedulerService service(chain_scenario(), {});
  // Batch request: high priority (weight 100), planned on time.
  EXPECT_EQ(service.snapshot().committed_value, 100.0);

  const AdmissionDecision decision = service.submit(
      submit_at(at_sec(0), "d0", 1, at_sec(600), kPriorityMedium));
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decision.committed_value, 110.0);

  service.cancel(decision.request, at_sec(0));
  EXPECT_EQ(service.snapshot().committed_value, 100.0)
      << "cancellation releases the committed value";
}

TEST(SchedulerServiceTest, CommittedValueMatchesPublicQueriesThroughFaults) {
  // A scripted session with an outage and its restore, a brownout, a copy
  // loss at a served destination and a cancel. After every step the
  // snapshot's committed value must equal the sum, over every request the
  // client knows was admitted, of its weight when the service reports it
  // satisfied, or pending with a planned arrival by its deadline.
  const Interval always{SimTime::zero(), at_min(120)};
  const Scenario scenario = ScenarioBuilder()
                                .machine(1 << 30).machine(1 << 30)
                                .machine(1 << 30).machine(1 << 30)
                                .link(0, 1, 8'000'000, always)
                                .link(1, 2, 8'000'000, always)
                                .link(0, 2, 800'000, always)
                                .link(2, 3, 8'000'000, always)
                                .link(1, 3, 8'000'000, always)
                                .item(1'000'000)
                                .source(0, SimTime::zero())
                                .request(3, at_min(30), kPriorityHigh)
                                .item(2'000'000)
                                .source(1, SimTime::zero())
                                .request(2, at_min(20), kPriorityMedium)
                                .item(500'000)
                                .source(0, SimTime::zero())
                                .request(1, at_min(10), kPriorityLow)
                                .build();
  ServiceOptions options;
  options.fault_events.push_back({at_sec(2), LinkOutageEvent{PhysLinkId(0)}});
  options.fault_events.push_back(
      {at_sec(5), LinkDegradeEvent{PhysLinkId(1), {at_sec(5), at_sec(300)}, 0.5}});
  options.fault_events.push_back({at_sec(30), CopyLossEvent{"d2", MachineId(1)}});
  options.fault_events.push_back({at_sec(60), LinkRestoreEvent{PhysLinkId(0)}});
  SchedulerService service(scenario, options);
  const PriorityWeighting weighting = options.engine.weighting;

  struct Admitted {
    RequestRef request;
    SimTime deadline;
    Priority priority;
  };
  std::vector<Admitted> admitted;
  for (std::size_t i = 0; i < scenario.items.size(); ++i) {
    const std::vector<Request>& requests = scenario.items[i].requests;
    for (std::size_t k = 0; k < requests.size(); ++k) {
      admitted.push_back({{ItemId(static_cast<std::int32_t>(i)), static_cast<std::int32_t>(k)},
                          requests[k].deadline,
                          requests[k].priority});
    }
  }
  const auto brute_value = [&] {
    double value = 0.0;
    for (const Admitted& a : admitted) {
      switch (service.request_status(a.request)) {
        case DynamicRequestStatus::kSatisfied:
          value += weighting.weight(a.priority);
          break;
        case DynamicRequestStatus::kPending: {
          const SimTime arrival = service.planned_arrival(a.request);
          if (!arrival.is_infinite() && arrival <= a.deadline) {
            value += weighting.weight(a.priority);
          }
          break;
        }
        default:
          break;
      }
    }
    return value;
  };
  EXPECT_EQ(service.snapshot().committed_value, brute_value());

  const std::vector<SubmitRequest> script{
      submit_at(at_sec(0), "d0", 2, at_min(40), kPriorityMedium),
      submit_at(at_sec(1), "d2", 3, at_min(50), kPriorityHigh),
      submit_at(at_sec(3), "d1", 3, at_min(45), kPriorityLow),
      submit_at(at_sec(10), "d0", 1, at_min(60), kPriorityHigh),
      submit_at(at_sec(40), "d2", 2, at_min(70), kPriorityMedium),
      submit_at(at_sec(90), "d1", 0, at_min(90), kPriorityHigh),
  };
  std::size_t admits = 0;
  std::vector<AdmissionDecision> decisions;
  for (const SubmitRequest& submit : script) {
    const AdmissionDecision& decision = decisions.emplace_back(service.submit(submit));
    if (decision.admitted()) {
      ++admits;
      admitted.push_back({decision.request, submit.request.deadline, submit.request.priority});
    }
    EXPECT_EQ(decision.committed_value, brute_value()) << submit.item_name;
    EXPECT_EQ(service.snapshot().committed_value, brute_value()) << submit.item_name;
    if (submit.at == at_sec(10) && decisions.front().admitted()) {
      service.cancel(decisions.front().request, at_sec(20));  // d0 -> M2
      EXPECT_EQ(service.snapshot().committed_value, brute_value()) << "after cancel";
    }
  }
  EXPECT_GE(admits, 3u);
  service.advance_to(at_min(100));
  EXPECT_EQ(service.snapshot().committed_value, brute_value());
}

TEST(SchedulerServiceTest, LedgerMatchesDeliveriesWithCancelsAndResubmits) {
  // Congested cases whose later requests arrive online, closed loop as a
  // session client submits them (no second outstanding request for an
  // (item, dest) pair). Every third admitted request that is still pending
  // is cancelled and its pair re-submitted at once. Throughout, a pending
  // admitted request's planned arrival is that of a step not started yet;
  // once every deadline has passed, the committed value is what the run
  // delivers.
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 8;
  const PriorityWeighting weighting = ServiceOptions{}.engine.weighting;
  std::size_t resubmits_admitted = 0;
  for (Scenario batch : generate_cases(config, 7, 3)) {
    Rng rng(7);
    std::vector<SubmitRequest> submits;
    SimTime last_deadline = SimTime::zero();
    for (DataItem& item : batch.items) {
      const std::size_t keep = (item.requests.size() + 1) / 2;
      for (std::size_t r = 0; r < item.requests.size(); ++r) {
        last_deadline = max(last_deadline, item.requests[r].deadline);
        if (r < keep) continue;
        SubmitRequest submit;
        submit.item_name = item.name;
        submit.request = item.requests[r];
        submit.at = SimTime::from_usec(rng.uniform_i64(0, submit.request.deadline.usec() / 2));
        submits.push_back(std::move(submit));
      }
      item.requests.resize(keep);
    }
    std::stable_sort(submits.begin(), submits.end(),
                     [](const SubmitRequest& a, const SubmitRequest& b) { return a.at < b.at; });

    SchedulerService service(batch, {});
    // Online admissions, with their destinations.
    std::vector<std::pair<RequestRef, MachineId>> admitted;
    const auto check_pending_arrivals = [&] {
      const std::vector<CommStep> planned = service.planned_steps();
      for (const auto& [request, dest] : admitted) {
        if (service.request_status(request) != DynamicRequestStatus::kPending) continue;
        const SimTime arrival = service.planned_arrival(request);
        if (arrival.is_infinite()) continue;
        EXPECT_TRUE(std::ranges::any_of(planned, [&](const CommStep& step) {
          return step.item == request.item && step.to == dest && step.arrival == arrival &&
                 step.start >= service.now();
        })) << "request " << request.item.value() << ":" << request.k;
      }
    };
    std::size_t admits = 0;
    for (const SubmitRequest& submit : submits) {
      if (service.request_status(submit.item_name, submit.request.destination) ==
          DynamicRequestStatus::kPending) {
        continue;
      }
      const AdmissionDecision decision = service.submit(submit);
      if (!decision.admitted()) continue;
      admitted.emplace_back(decision.request, submit.request.destination);
      check_pending_arrivals();
      if (++admits % 3 != 0 ||
          service.request_status(decision.request) != DynamicRequestStatus::kPending) {
        continue;
      }
      ASSERT_TRUE(service.cancel(decision.request, submit.at));
      const AdmissionDecision again = service.submit(submit);
      if (!again.admitted()) continue;
      ++resubmits_admitted;
      admitted.emplace_back(again.request, submit.request.destination);
      check_pending_arrivals();
    }
    service.advance_to(last_deadline + SimDuration::seconds(1));
    const double committed = service.snapshot().committed_value;
    EXPECT_EQ(committed, service.finish().weighted_value(weighting));
  }
  EXPECT_GT(resubmits_admitted, 0u);
}

TEST(SchedulerServiceTest, EmitsAdmissionMetrics) {
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  ServiceOptions options;
  options.engine.observer = &observer;
  SchedulerService service(chain_scenario(), options);

  service.submit(submit_at(at_sec(0), "d0", 1, at_sec(600)));
  service.submit(
      submit_at(at_sec(0), "d0", 2, SimTime::from_usec(1), kPriorityLow));

  EXPECT_EQ(registry.counter_value("admission.submits"), 2u);
  EXPECT_EQ(registry.counter_value("admission.admitted"), 1u);
  EXPECT_EQ(registry.counter_value("admission.quick_checks"), 2u);
  EXPECT_EQ(registry.counter_value("admission.quick_rejects"), 1u);
  const obs::Histogram* latency =
      registry.find_histogram("admission.decision_usec");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
}

TEST(SchedulerServiceTest, QuickAdmissionOffStillRejects) {
  ServiceOptions options;
  options.quick_admission = false;
  SchedulerService service(chain_scenario(), options);
  const AdmissionDecision decision = service.submit(
      submit_at(at_sec(0), "d0", 2, SimTime::from_usec(1000), kPriorityLow));
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kFullReject);
  EXPECT_FALSE(decision.quick_checked);
  EXPECT_FALSE(decision.admitted());
}

TEST(SchedulerServiceTest, NewItemSubmitIntroducesAndDelivers) {
  SchedulerService service(chain_scenario(), {});
  EXPECT_FALSE(service.has_item("fresh"));

  DataItem item;
  item.name = "fresh";
  item.size_bytes = 500'000;
  item.sources.push_back(SourceLocation{MachineId(0), at_sec(0)});

  SubmitRequest submit = submit_at(at_sec(0), "fresh", 2, at_sec(600));
  submit.new_item = item;
  const AdmissionDecision decision = service.submit(submit);
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(service.has_item("fresh"));

  const DynamicResult result = service.finish();
  std::size_t fresh_satisfied = 0;
  for (const DynamicRequestRecord& record : result.requests) {
    if (record.item_name == "fresh" && record.satisfied) ++fresh_satisfied;
  }
  EXPECT_EQ(fresh_satisfied, 1u);
}

TEST(SchedulerServiceTest, QuickRejectedNewItemIsNotIntroduced) {
  SchedulerService service(chain_scenario(), {});
  DataItem item;
  item.name = "fresh";
  item.size_bytes = 500'000;
  item.sources.push_back(SourceLocation{MachineId(0), at_sec(0)});

  SubmitRequest submit =
      submit_at(at_sec(0), "fresh", 2, SimTime::from_usec(1));
  submit.new_item = item;
  const AdmissionDecision decision = service.submit(submit);
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kQuickReject);
  EXPECT_FALSE(service.has_item("fresh"))
      << "a quick-rejected submit leaves no trace of its new item";
}

TEST(SchedulerServiceTest, QuickArrivalOfANewItemBoundsItsPlan) {
  // datastage_gen --seed=5 --preset=light. A new item's residual gc time
  // counts no request, so its relays there hold only until γ; the world
  // that admits the request holds them until its deadline + γ. The quick
  // check must not stop departures at the earlier hold end, or its arrival
  // (3,716,140,094 µs) overshoots the plan's.
  Rng rng(5);
  ServiceOptions options;
  options.engine.eu = EUWeights::from_log10_ratio(1.0);
  SchedulerService service(generate_scenario(GeneratorConfig::light(), rng), options);

  DataItem item;
  item.name = "x";
  item.size_bytes = 4096;
  item.sources.push_back(SourceLocation{MachineId(0), SimTime::zero()});
  SubmitRequest submit =
      submit_at(SimTime::zero(), "x", 1, SimTime::from_usec(7'200'000'000), kPriorityHigh);
  submit.new_item = item;
  const AdmissionDecision decision = service.submit(submit);
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decision.planned_arrival, SimTime::from_usec(1'620'383'051));
  EXPECT_EQ(decision.quick_arrival, decision.planned_arrival);
}

TEST(SchedulerServiceTest, NewItemFitRespectsStorageCapacity) {
  // The chain item occupies 1 MB of machine 0, so an item as large as the
  // machine does not fit: the submit is refused before either stage, with
  // no counter, replan or trace of the item.
  const Scenario scenario = chain_scenario();
  SchedulerService service(scenario, {});
  const std::size_t replans = service.snapshot().replans;
  DataItem big;
  big.name = "big";
  big.size_bytes = scenario.machines[0].capacity_bytes;
  big.sources.push_back(SourceLocation{MachineId(0), at_sec(0)});
  SubmitRequest submit = submit_at(at_sec(0), "big", 2, at_sec(600));
  submit.new_item = big;
  const AdmissionDecision decision = service.submit(submit);
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kInvalidItem);
  EXPECT_FALSE(decision.admitted());
  EXPECT_FALSE(service.has_item("big"));
  EXPECT_EQ(service.snapshot().submits, 0u);
  EXPECT_EQ(service.snapshot().replans, replans);
}

TEST(SchedulerServiceTest, NewItemFitIsCheckedAtTheSubmitInstant) {
  // M1 holds 1.5 MB, and d0 (1 MB) lands there for good at 1 s. A 1 MB new
  // item sourced at M1 fits at time 0 but not at 10 s, when it is submitted
  // with no pre-check: the service refuses it instead of injecting copies
  // that do not fit.
  const Scenario scenario = ScenarioBuilder()
                                .machine(1 << 30)
                                .machine(1'500'000)
                                .link(0, 1, 8'000'000, {SimTime::zero(), at_min(120)})
                                .item(1'000'000)
                                .source(0, SimTime::zero())
                                .request(1, at_min(30))
                                .build();
  for (const bool quick : {true, false}) {
    ServiceOptions options;
    options.quick_admission = quick;
    SchedulerService service(scenario, options);
    DataItem item;
    item.name = "fresh";
    item.size_bytes = 1'000'000;
    item.sources.push_back(SourceLocation{MachineId(1), SimTime::zero()});
    SubmitRequest submit = submit_at(at_sec(10), "fresh", 0, at_sec(600));
    submit.new_item = item;
    const AdmissionDecision decision = service.submit(submit);
    EXPECT_EQ(decision.outcome, AdmissionOutcome::kInvalidItem) << "quick " << quick;
    EXPECT_EQ(service.now(), at_sec(10)) << "quick " << quick;
    EXPECT_FALSE(service.has_item("fresh")) << "quick " << quick;
    EXPECT_EQ(service.snapshot().submits, 0u) << "quick " << quick;
  }
}

TEST(SchedulerServiceTest, FinishDrainsRemainingFaults) {
  ServiceOptions options;
  options.fault_events.push_back(
      {at_sec(5000), LinkOutageEvent{PhysLinkId(0)}});
  SchedulerService service(chain_scenario(), options);
  // finish() without ever advancing to t=5000 must still apply the outage
  // (the effective world includes it).
  const DynamicResult result = service.finish();
  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_TRUE(result.requests[0].satisfied)
      << "outage at t=5000 is long after the ~2 s delivery";
}

}  // namespace
}  // namespace datastage
