// Fault recovery in the DynamicStager: brownout (degrade) events, copy-loss
// events, and the FaultSpec -> event-stream bridge (dynamic/fault_events).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dynamic/fault_events.hpp"
#include "dynamic/stager.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

SchedulerSpec full_one_c4() { return {HeuristicKind::kFullOne, CostCriterion::kC4}; }

EngineOptions c4_options(obs::RunObserver* observer = nullptr) {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.observer = observer;
  return options;
}

StagingEvent degrade_at(SimTime at, std::int32_t link, double factor,
                        SimTime until = at_min(120)) {
  return StagingEvent{at, LinkDegradeEvent{PhysLinkId(link), {at, until}, factor}};
}

StagingEvent copy_loss_at(SimTime at, const std::string& item, std::int32_t machine) {
  return StagingEvent{at, CopyLossEvent{item, MachineId(machine)}};
}

TEST(StagerFaultTest, DegradeDropsInFlightAndReplansAtReducedRate) {
  const Scenario s = testing::chain_scenario();  // A->B->C, 1 s per hop
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  DynamicStager stager(s, full_one_c4(), c4_options(&observer));

  // Half-rate brownout on A->B announced mid-transfer: the in-flight step is
  // lost and the item must be resent at 4 Mbit/s (2 s).
  stager.on_event(degrade_at(SimTime::from_usec(500'000), 0, 0.5));
  const DynamicResult result = stager.finish();

  EXPECT_EQ(result.satisfied_count(), 1u);
  ASSERT_EQ(result.requests.size(), 1u);
  // Resent A->B over [0.5s, 2.5s], then B->C at full rate: arrival 3.5s.
  EXPECT_EQ(result.requests[0].arrival, SimTime::from_usec(3'500'000));

  EXPECT_EQ(registry.counter_value("faults.degrades"), 1u);
  EXPECT_EQ(registry.counter_value("faults.inflight_dropped"), 1u);

  // The merged schedule replays cleanly against the world that actually
  // existed (degraded fragments carry the reduced bandwidth).
  const SimReport replay = simulate(stager.effective_scenario(), result.schedule);
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues.front());
}

TEST(StagerFaultTest, EffectiveScenarioCarriesDegradedBandwidth) {
  const Scenario s = testing::chain_scenario();
  DynamicStager stager(s, full_one_c4(), c4_options());
  stager.on_event(degrade_at(at_min(10), 0, 0.25, at_min(20)));
  stager.finish();

  const Scenario effective = stager.effective_scenario();
  bool found = false;
  for (const VirtualLink& vl : effective.virt_links) {
    if (vl.phys == PhysLinkId(0) && vl.window == Interval{at_min(10), at_min(20)}) {
      EXPECT_EQ(vl.bandwidth_bps, 2'000'000);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(StagerFaultTest, DestinationCopyLossRequeuesAndRedelivers) {
  const Scenario s = testing::chain_scenario();
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  DynamicStager stager(s, full_one_c4(), c4_options(&observer));

  // The request (deadline 30 min) was satisfied at 2 s; C loses the copy at
  // 5 min. Recovery re-stages from B's intermediate copy (gc keeps it until
  // deadline + gamma) and re-satisfies the request.
  stager.on_event(copy_loss_at(at_min(5), "d0", 2));
  const DynamicResult result = stager.finish();

  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_TRUE(result.requests[0].satisfied);
  EXPECT_EQ(result.requests[0].arrival, at_min(5) + SimDuration::seconds(1));
  EXPECT_EQ(result.schedule.size(), 3u);

  EXPECT_EQ(registry.counter_value("faults.copy_losses"), 1u);
  EXPECT_EQ(registry.counter_value("faults.requeued_requests"), 1u);
}

TEST(StagerFaultTest, CopyLossAfterDeadlineDoesNotRequeue) {
  const Scenario s = testing::chain_scenario();
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  DynamicStager stager(s, full_one_c4(), c4_options(&observer));

  // The delivery window closed at 30 min; losing the copy at 31 min no
  // longer voids the satisfied request.
  stager.on_event(copy_loss_at(at_min(31), "d0", 2));
  const DynamicResult result = stager.finish();

  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_TRUE(result.requests[0].satisfied);
  EXPECT_EQ(result.schedule.size(), 2u);
  EXPECT_EQ(registry.counter_value("faults.copy_losses"), 1u);
  EXPECT_EQ(registry.counter_value("faults.requeued_requests"), 0u);
}

TEST(StagerFaultTest, LossOfUnstagedMachineIsNoop) {
  const Scenario s = testing::chain_scenario();
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  DynamicStager stager(s, full_one_c4(), c4_options(&observer));

  // B only receives the item at 1 s; at 0.5 s there is nothing to destroy
  // (the in-flight transfer survives, matching the replay semantics).
  stager.on_event(copy_loss_at(SimTime::from_usec(500'000), "d0", 1));
  const DynamicResult result = stager.finish();

  EXPECT_TRUE(result.requests[0].satisfied);
  EXPECT_EQ(registry.counter_value("faults.copy_losses_noop"), 1u);
}

TEST(StagerFaultTest, SourceCopyLossFallsBackToSecondSource) {
  // Two sources (A fast via link 0, D slow via link 1), windows open at 10 s
  // so the loss at 5 s hits before any transfer starts.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 2, 8'000'000, {at_sec(10), at_min(120)})
                         .link(1, 2, 4'000'000, {at_sec(10), at_min(120)})
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .source(1, SimTime::zero())
                         .request(2, at_min(30), kPriorityHigh)
                         .build();
  DynamicStager stager(s, full_one_c4(), c4_options());
  stager.on_event(copy_loss_at(at_sec(5), "d0", 0));
  const DynamicResult result = stager.finish();

  ASSERT_EQ(result.schedule.size(), 1u);
  EXPECT_EQ(result.schedule.steps()[0].from, MachineId(1));
  EXPECT_TRUE(result.requests[0].satisfied);
  EXPECT_EQ(result.requests[0].arrival, at_sec(12));
}

TEST(FaultEventsTest, EmptySpecYieldsNoEvents) {
  EXPECT_TRUE(fault_events(FaultSpec{}).empty());
}

TEST(FaultEventsTest, OverlappingOutagesMergeIntoOnePeriod) {
  FaultSpec faults;
  faults.outages.push_back(LinkOutage{PhysLinkId(0), {at_sec(0), at_sec(10)}});
  faults.outages.push_back(LinkOutage{PhysLinkId(0), {at_sec(5), at_sec(20)}});
  const std::vector<StagingEvent> events = fault_events(faults);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, at_sec(0));
  EXPECT_TRUE(std::holds_alternative<LinkOutageEvent>(events[0].body));
  EXPECT_EQ(events[1].at, at_sec(20));
  EXPECT_TRUE(std::holds_alternative<LinkRestoreEvent>(events[1].body));
}

TEST(FaultEventsTest, InfiniteOutageHasNoRestore) {
  FaultSpec faults;
  faults.outages.push_back(
      LinkOutage{PhysLinkId(0), {at_sec(3), SimTime::infinity()}});
  const std::vector<StagingEvent> events = fault_events(faults);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<LinkOutageEvent>(events[0].body));
}

TEST(FaultEventsTest, TieOrderIsRestoreOutageDegradeLoss) {
  FaultSpec faults;
  faults.copy_losses.push_back(CopyLoss{"d0", MachineId(0), at_sec(10)});
  faults.degradations.push_back(
      LinkDegradation{PhysLinkId(1), {at_sec(10), at_sec(20)}, 0.5});
  faults.outages.push_back(LinkOutage{PhysLinkId(0), {at_sec(2), at_sec(10)}});
  faults.outages.push_back(LinkOutage{PhysLinkId(2), {at_sec(10), at_sec(15)}});
  const std::vector<StagingEvent> events = fault_events(faults);
  // t=2: outage(0). t=10: restore(0), outage(2), degrade(1), copyloss.
  // t=15: restore(2).
  ASSERT_EQ(events.size(), 6u);
  EXPECT_TRUE(std::holds_alternative<LinkOutageEvent>(events[0].body));
  EXPECT_TRUE(std::holds_alternative<LinkRestoreEvent>(events[1].body));
  EXPECT_TRUE(std::holds_alternative<LinkOutageEvent>(events[2].body));
  EXPECT_TRUE(std::holds_alternative<LinkDegradeEvent>(events[3].body));
  EXPECT_TRUE(std::holds_alternative<CopyLossEvent>(events[4].body));
  EXPECT_TRUE(std::holds_alternative<LinkRestoreEvent>(events[5].body));
  EXPECT_EQ(events[5].at, at_sec(15));
}

TEST(StagerFaultTest, FaultEventsDriveOutageRecoveryWithCounters) {
  const Scenario s = testing::chain_scenario();
  FaultSpec faults;
  faults.outages.push_back(
      LinkOutage{PhysLinkId(0), {SimTime::from_usec(500'000), at_sec(30)}});

  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  DynamicStager stager(s, full_one_c4(), c4_options(&observer));
  for (const StagingEvent& event : fault_events(faults)) stager.on_event(event);
  const DynamicResult result = stager.finish();

  EXPECT_TRUE(result.requests[0].satisfied);
  EXPECT_EQ(registry.counter_value("faults.outages"), 1u);
  EXPECT_EQ(registry.counter_value("faults.restores"), 1u);
  EXPECT_EQ(registry.counter_value("faults.inflight_dropped"), 1u);

  const SimReport replay = simulate(stager.effective_scenario(), result.schedule);
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues.front());
}

TEST(StagerFaultTest, DegradedWindowPlansAtTheWindowRate) {
  // §3: every virtual link carries its own bandwidth, so a window may run
  // below its physical link's rate. The 1 MB item takes 2 s at the window's
  // 4 Mbit/s, not 1 s at the link's 8.
  Scenario s = ScenarioBuilder()
                   .machine(kGB)
                   .machine(kGB)
                   .link(0, 1, 8'000'000, kAlways)
                   .item(1'000'000)
                   .source(0, SimTime::zero())
                   .request(1, at_min(30))
                   .build_unchecked();
  s.virt_links[0].bandwidth_bps = 4'000'000;
  s.check_valid();
  DynamicStager stager(s, full_one_c4(), c4_options());
  const DynamicResult result = stager.finish();

  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_EQ(result.requests[0].arrival, at_sec(2));
  const SimReport replay = simulate(stager.effective_scenario(), result.schedule);
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues.front());
}

TEST(StagerFaultTest, OutageRightAfterARestoreIsItsOwnPeriod) {
  // A->B goes down at 0.5 s, comes back at 10 s and goes down again at the
  // same instant, then comes back at 20 s. The second restore reports the
  // second outage's start, and the effective windows lose [0.5 s, 20 s).
  const Scenario s = testing::chain_scenario();
  std::ostringstream out;
  obs::RunTrace trace(out);
  obs::RunObserver observer{nullptr, &trace};
  DynamicStager stager(s, full_one_c4(), c4_options(&observer));
  const PhysLinkId link(0);
  stager.on_event({SimTime::from_usec(500'000), LinkOutageEvent{link}});
  stager.on_event({at_sec(10), LinkRestoreEvent{link}});
  stager.on_event({at_sec(10), LinkOutageEvent{link}});
  stager.on_event({at_sec(20), LinkRestoreEvent{link}});
  const DynamicResult result = stager.finish();

  std::vector<std::int64_t> down_since;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    const std::string key = "\"down_since_usec\":";
    const std::size_t at = line.find(key);
    if (at != std::string::npos) down_since.push_back(std::stoll(line.substr(at + key.size())));
  }
  EXPECT_EQ(down_since, (std::vector<std::int64_t>{500'000, 10'000'000}));

  std::vector<Interval> windows;
  for (const VirtualLink& vl : stager.effective_scenario().virt_links) {
    if (vl.phys == link) windows.push_back(vl.window);
  }
  EXPECT_EQ(windows, (std::vector<Interval>{{SimTime::zero(), SimTime::from_usec(500'000)},
                                            {at_sec(20), at_min(120)}}));
  EXPECT_TRUE(result.requests[0].satisfied);
  EXPECT_EQ(result.requests[0].arrival, at_sec(22));
  const SimReport replay = simulate(stager.effective_scenario(), result.schedule);
  EXPECT_TRUE(replay.ok) << (replay.issues.empty() ? "" : replay.issues.front());
}

}  // namespace
}  // namespace datastage
