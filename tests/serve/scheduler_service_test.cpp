// SchedulerService: the two-stage admission path, cancellation, fault
// interleaving and the committed-value ledger.
#include "serve/scheduler_service.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "serve/admission.hpp"
#include "testing/builders.hpp"

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
  EXPECT_TRUE(service.cancel("d0", MachineId(1), at_sec(0)));
  EXPECT_EQ(service.request_status("d0", MachineId(1)),
            DynamicRequestStatus::kCancelled);
  EXPECT_FALSE(service.cancel("d0", MachineId(1), at_sec(0)))
      << "second cancel is a no-op";

  // The slot is free for a new lifecycle. By t=2 the batch d0->M2 transfer
  // has relayed a copy through M1, so the resubmission is satisfied on the
  // spot rather than planned afresh.
  const AdmissionDecision second =
      service.submit(submit_at(at_sec(2), "d0", 1, at_sec(600)));
  EXPECT_EQ(second.outcome, AdmissionOutcome::kAlreadySatisfied);
  EXPECT_TRUE(second.admitted());
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

  service.cancel("d0", MachineId(1), at_sec(0));
  EXPECT_EQ(service.snapshot().committed_value, 100.0)
      << "cancellation releases the committed value";
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
  ASSERT_TRUE(service.new_item_fits(item));

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

TEST(SchedulerServiceTest, NewItemFitRespectsStorageCapacity) {
  // Machine 0 has 2 MB capacity, 1 MB of which the chain item occupies.
  const Scenario scenario = chain_scenario();
  SchedulerService service(scenario, {});
  DataItem big;
  big.name = "big";
  big.size_bytes = scenario.machines[0].capacity_bytes;
  big.sources.push_back(SourceLocation{MachineId(0), at_sec(0)});
  EXPECT_FALSE(service.new_item_fits(big));
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
