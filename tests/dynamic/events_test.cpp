// Total tie-order of staging events and the CancelRequestEvent lifecycle.
#include "dynamic/events.hpp"

#include <gtest/gtest.h>

#include "dynamic/stager.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_sec;
using testing::chain_scenario;

StagingEvent ev(SimTime at, StagingEventBody body) {
  return StagingEvent{at, std::move(body)};
}

TEST(StagingEventOrderTest, RanksFaultsBeforeArrivalsBeforeCancels) {
  EXPECT_EQ(staging_event_rank(LinkRestoreEvent{PhysLinkId(0)}), 0);
  EXPECT_EQ(staging_event_rank(LinkOutageEvent{PhysLinkId(0)}), 1);
  EXPECT_EQ(staging_event_rank(
                LinkDegradeEvent{PhysLinkId(0),
                                 Interval{at_sec(0), at_sec(1)}, 0.5}),
            2);
  EXPECT_EQ(staging_event_rank(CopyLossEvent{"d0", MachineId(1)}), 3);
  EXPECT_EQ(staging_event_rank(NewItemEvent{DataItem{}}), 4);
  EXPECT_EQ(staging_event_rank(NewRequestEvent{"d0", Request{}}), 5);
  EXPECT_EQ(staging_event_rank(CancelRequestEvent{"d0", MachineId(2)}), 6);
}

TEST(StagingEventOrderTest, TimeDominatesRank) {
  // A cancel at t=1 precedes a restore at t=2.
  const StagingEvent early = ev(at_sec(1), CancelRequestEvent{"d0", MachineId(0)});
  const StagingEvent late = ev(at_sec(2), LinkRestoreEvent{PhysLinkId(0)});
  EXPECT_TRUE(staging_event_before(early, late));
  EXPECT_FALSE(staging_event_before(late, early));
}

TEST(StagingEventOrderTest, SortsSameInstantEventsByRankThenKey) {
  std::vector<StagingEvent> events;
  events.push_back(ev(at_sec(5), NewRequestEvent{"d0", Request{MachineId(2), at_sec(60)}}));
  events.push_back(ev(at_sec(5), CancelRequestEvent{"d0", MachineId(2)}));
  events.push_back(ev(at_sec(5), LinkOutageEvent{PhysLinkId(1)}));
  events.push_back(ev(at_sec(5), LinkOutageEvent{PhysLinkId(0)}));
  events.push_back(ev(at_sec(5), LinkRestoreEvent{PhysLinkId(2)}));
  events.push_back(ev(at_sec(5), CopyLossEvent{"d0", MachineId(1)}));
  events.push_back(ev(at_sec(5), NewItemEvent{DataItem{"d9", 1, {}, {}}}));

  sort_staging_events(events);

  EXPECT_TRUE(std::holds_alternative<LinkRestoreEvent>(events[0].body));
  // Same-rank outages order by link id.
  ASSERT_TRUE(std::holds_alternative<LinkOutageEvent>(events[1].body));
  EXPECT_EQ(std::get<LinkOutageEvent>(events[1].body).link, PhysLinkId(0));
  ASSERT_TRUE(std::holds_alternative<LinkOutageEvent>(events[2].body));
  EXPECT_EQ(std::get<LinkOutageEvent>(events[2].body).link, PhysLinkId(1));
  EXPECT_TRUE(std::holds_alternative<CopyLossEvent>(events[3].body));
  EXPECT_TRUE(std::holds_alternative<NewItemEvent>(events[4].body));
  EXPECT_TRUE(std::holds_alternative<NewRequestEvent>(events[5].body));
  EXPECT_TRUE(std::holds_alternative<CancelRequestEvent>(events[6].body));
}

TEST(StagingEventOrderTest, StableForFullyTiedEvents) {
  // Two new-request events for the same (item, dest) are fully tied on
  // (time, rank, key): stable sort keeps submission order.
  std::vector<StagingEvent> events;
  events.push_back(ev(at_sec(1), NewRequestEvent{"d0", Request{MachineId(2), at_sec(10)}}));
  events.push_back(ev(at_sec(1), NewRequestEvent{"d0", Request{MachineId(2), at_sec(20)}}));
  sort_staging_events(events);
  EXPECT_EQ(std::get<NewRequestEvent>(events[0].body).request.deadline, at_sec(10));
  EXPECT_EQ(std::get<NewRequestEvent>(events[1].body).request.deadline, at_sec(20));
}

// --- CancelRequestEvent lifecycle through the stager ---

SchedulerSpec spec() { return {HeuristicKind::kFullOne, CostCriterion::kC4}; }

TEST(CancelRequestTest, CancelsOutstandingRequest) {
  DynamicStager stager(chain_scenario(), spec(), {});
  EXPECT_EQ(stager.request_status("d0", MachineId(2)),
            DynamicRequestStatus::kPending);

  stager.on_event({at_sec(0), CancelRequestEvent{"d0", MachineId(2)}});
  EXPECT_EQ(stager.request_status("d0", MachineId(2)),
            DynamicRequestStatus::kCancelled);
  // The withdrawn request's transfers are abandoned at the replan.
  EXPECT_EQ(stager.planned_step_count(), 0u);

  const DynamicResult result = stager.finish();
  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_TRUE(result.requests[0].cancelled);
  EXPECT_FALSE(result.requests[0].satisfied);
  EXPECT_EQ(result.weighted_value(PriorityWeighting::w_1_10_100()), 0.0);
}

TEST(CancelRequestTest, CancelOfResolvedOrUnknownRequestIsNoop) {
  DynamicStager stager(chain_scenario(), spec(), {});
  // Let the chain transfer complete (2 hops x 1s) and the request resolve.
  stager.advance_to(at_sec(10));
  EXPECT_EQ(stager.request_status("d0", MachineId(2)),
            DynamicRequestStatus::kSatisfied);

  stager.on_event({at_sec(10), CancelRequestEvent{"d0", MachineId(2)}});
  EXPECT_EQ(stager.request_status("d0", MachineId(2)),
            DynamicRequestStatus::kSatisfied);

  // Unknown item / destination: also a no-op, not a crash.
  stager.on_event({at_sec(10), CancelRequestEvent{"nope", MachineId(2)}});
  stager.on_event({at_sec(10), CancelRequestEvent{"d0", MachineId(0)}});

  const DynamicResult result = stager.finish();
  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_TRUE(result.requests[0].satisfied);
  EXPECT_FALSE(result.requests[0].cancelled);
}

TEST(CancelRequestTest, NoopCancelOnlyAdvancesTheClock) {
  DynamicStager stager(chain_scenario(), spec(), {});
  const std::size_t replans = stager.replans();
  const std::vector<CommStep> plan = stager.planned_steps();
  // Unknown item, unrequested destination, out-of-range handle: no replan.
  stager.on_event({at_sec(0), CancelRequestEvent{"nope", MachineId(2)}});
  stager.on_event({at_sec(0), CancelRequestEvent{"d0", MachineId(0)}});
  stager.on_event({at_sec(0), CancelRequestEvent{"d0", MachineId(2), 7}});
  EXPECT_EQ(stager.replans(), replans);
  EXPECT_EQ(stager.planned_steps(), plan);
  // At a later instant the clock moves and the started hop commits, as
  // advance_to would; the plan stands.
  stager.on_event({at_sec(1), CancelRequestEvent{"nope", MachineId(2)}});
  EXPECT_EQ(stager.replans(), replans);
  EXPECT_EQ(stager.now(), at_sec(1));
  EXPECT_EQ(stager.committed_step_count(), 1u);
  EXPECT_EQ(stager.planned_step_count(), 1u);
  // A resolved request: the delivery stands, still without a replan.
  stager.on_event({at_sec(10), CancelRequestEvent{"d0", MachineId(2)}});
  EXPECT_EQ(stager.replans(), replans);
  EXPECT_EQ(stager.request_status("d0", MachineId(2)), DynamicRequestStatus::kSatisfied);
}

TEST(CancelRequestTest, CancellationSurvivesCopyLoss) {
  DynamicStager stager(chain_scenario(), spec(), {});
  stager.on_event({at_sec(0), CancelRequestEvent{"d0", MachineId(2)}});

  // Losing the source copy afterwards must not resurrect the request.
  stager.on_event({at_sec(1), CopyLossEvent{"d0", MachineId(0)}});
  EXPECT_EQ(stager.request_status("d0", MachineId(2)),
            DynamicRequestStatus::kCancelled);

  const DynamicResult result = stager.finish();
  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_TRUE(result.requests[0].cancelled);
}

TEST(CancelRequestTest, CancelMatchesMostRecentOutstandingRequest) {
  Scenario scenario = chain_scenario();
  DynamicStager stager(scenario, spec(), {});
  // Resolve the original request, then add a second one for the same pair.
  stager.advance_to(at_sec(10));
  stager.on_event({at_sec(10),
                   NewRequestEvent{"d0", Request{MachineId(2), at_sec(60)}}});
  // The destination already holds the copy: instantly satisfied, so a cancel
  // afterwards is a no-op for both requests.
  stager.on_event({at_sec(10), CancelRequestEvent{"d0", MachineId(2)}});

  const DynamicResult result = stager.finish();
  ASSERT_EQ(result.requests.size(), 2u);
  EXPECT_FALSE(result.requests[0].cancelled);
  EXPECT_FALSE(result.requests[1].cancelled);
}

}  // namespace
}  // namespace datastage
