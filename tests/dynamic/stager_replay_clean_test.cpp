// A finished dynamic run replays through its own effective scenario.
//
// The stager holds a relayed copy until its item's latest counted deadline
// plus γ (relay_gc_time, model/scenario.hpp): resolved requests count, a
// withdrawn one or one that never entered the plan does not, and
// effective_scenario() lists exactly the requests that count. So
// sim::simulate charges every transfer's storage for the window the stager
// held it, and counts the same requests satisfied.
//
// Property: on generated congested streams (8 machines, 8 requests per
// machine, the serve_congested split, full_one/C4) of three kinds (submits
// only; plus a full reject's same-instant withdrawal; plus outages and
// restores), every finished run replays clean through
// simulate(effective_scenario(), schedule) and the replay's satisfied count
// equals the stager's. Hand-built cases pin down each part of the rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/satisfaction.hpp"
#include "dynamic/events.hpp"
#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sim/simulator.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::ScenarioBuilder;

constexpr SchedulerSpec kFullOneC4{HeuristicKind::kFullOne, CostCriterion::kC4};

EngineOptions c4_options(obs::RunObserver* observer = nullptr) {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.observer = observer;
  return options;
}

struct OnlineRequest {
  SimTime at;
  std::string item;
  Request request;
};

/// The serve_congested split: the first half of each item's requests stays
/// in the batch, the rest arrives at seeded instants in the first half of
/// its time to deadline.
std::vector<OnlineRequest> split_online(Scenario& batch, Rng& rng) {
  std::vector<OnlineRequest> online;
  for (DataItem& item : batch.items) {
    const std::size_t keep =
        item.requests.size() <= 1 ? item.requests.size() : item.requests.size() / 2;
    for (std::size_t r = keep; r < item.requests.size(); ++r) {
      const Request& request = item.requests[r];
      online.push_back({SimTime::from_usec(rng.uniform_i64(0, request.deadline.usec() / 2)),
                        item.name, request});
    }
    item.requests.resize(keep);
  }
  std::stable_sort(online.begin(), online.end(),
                   [](const OnlineRequest& a, const OnlineRequest& b) { return a.at < b.at; });
  return online;
}

/// Finishes the run and replays it against its effective scenario: "" when
/// the replay is clean and counts the stager's satisfied requests, else what
/// differs. `satisfied`, when given, receives the stager's count.
std::string replay_mismatch(DynamicStager& stager, std::size_t* satisfied = nullptr) {
  const DynamicResult result = stager.finish();
  if (satisfied != nullptr) *satisfied = result.satisfied_count();
  const SimReport replay = simulate(stager.effective_scenario(), result.schedule);
  if (!replay.ok) return replay.issues.front();
  const std::size_t replayed = satisfied_count(replay.outcomes);
  if (replayed != result.satisfied_count()) {
    return "replay satisfies " + std::to_string(replayed) + ", the stager " +
           std::to_string(result.satisfied_count());
  }
  return "";
}

enum class StreamKind { kSubmits, kWithdrawals, kFaults };

class StagerReplayCleanTest : public ::testing::TestWithParam<StreamKind> {};

TEST_P(StagerReplayCleanTest, FinishedRunReplaysThroughItsEffectiveScenario) {
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 8;
  const StreamKind kind = GetParam();

  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  std::size_t streams = 0;
  std::size_t withdrawals = 0;
  std::size_t outages = 0;
  std::size_t refused = 0;
  std::vector<std::string> failures;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Scenario batch = generate_cases(config, seed, 1).front();
    Rng rng(seed * 7919);
    const std::vector<OnlineRequest> online = split_online(batch, rng);
    EngineOptions options = c4_options(&observer);
    // The schedule is the same at any engine_jobs; two jobs put the refresh
    // on the pool.
    options.engine_jobs = seed % 2 == 0 ? 1 : 2;
    DynamicStager stager(batch, kFullOneC4, options);
    std::vector<PhysLinkId> down;
    for (const OnlineRequest& next : online) {
      if (kind == StreamKind::kFaults) {
        if (rng.uniform_i64(0, 9) == 0) {
          const PhysLinkId link(static_cast<std::int32_t>(
              rng.uniform_i64(0, static_cast<std::int64_t>(batch.phys_links.size()) - 1)));
          if (std::find(down.begin(), down.end(), link) == down.end()) {
            stager.on_event({next.at, LinkOutageEvent{link}});
            down.push_back(link);
            ++outages;
          }
        } else if (!down.empty() && rng.uniform_i64(0, 3) == 0) {
          stager.on_event({next.at, LinkRestoreEvent{down.front()}});
          down.erase(down.begin());
        }
      }
      stager.on_event({next.at, NewRequestEvent{next.item, next.request}});
      if (kind == StreamKind::kSubmits) continue;
      // A full reject withdraws the request at once, as SchedulerService does.
      const RequestRef request = stager.newest_request(stager.item_id(next.item));
      if (stager.request_status(request) == DynamicRequestStatus::kPending &&
          stager.planned_arrival(request) > next.request.deadline) {
        stager.on_event({next.at, CancelRequestEvent{next.item, next.request.destination,
                                                     request.k}});
        ++withdrawals;
      }
    }
    refused += stager.gc_extensions_refused();
    const std::string mismatch = replay_mismatch(stager);
    if (!mismatch.empty()) failures.push_back("seed " + std::to_string(seed) + ": " + mismatch);
    ++streams;
  }
  EXPECT_EQ(streams, 200u);
  EXPECT_TRUE(failures.empty()) << failures.size() << " streams, first "
                                << (failures.empty() ? "" : failures.front());
  // The streams exercised what their kind claims, and the rule refused a
  // later deadline that a relay could not hold (the metric counts it too).
  EXPECT_GT(refused, 0u);
  const auto counted = registry.counters().find("dynamic.gc_extensions_refused");
  EXPECT_EQ(counted == registry.counters().end() ? 0 : counted->second, refused);
  if (kind != StreamKind::kSubmits) {
    EXPECT_GT(withdrawals, 200u);
  }
  if (kind == StreamKind::kFaults) {
    EXPECT_GT(outages, 200u);
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, StagerReplayCleanTest,
                         ::testing::Values(StreamKind::kSubmits, StreamKind::kWithdrawals,
                                           StreamKind::kFaults),
                         [](const ::testing::TestParamInfo<StreamKind>& param) {
                           switch (param.param) {
                             case StreamKind::kSubmits:
                               return std::string("Submits");
                             case StreamKind::kWithdrawals:
                               return std::string("Withdrawals");
                             case StreamKind::kFaults:
                               return std::string("WithdrawalsAndFaults");
                           }
                           return std::string();
                         });

const Interval kAlways{SimTime::zero(), at_min(120)};
constexpr std::int64_t kItemBytes = 100'000'000;  // 100 s over an 8 Mbit/s link

/// x relays A -> M -> B, due at B by 250 s, so its relay copy at M is held
/// until 310 s (γ 60 s); M has room for one copy. y is an item that M
/// stores from 400 s on (`y_at_m`) or that A sends to M from 400 s on.
/// C has no links.
Scenario relay_scenario(bool y_at_m) {
  ScenarioBuilder builder;
  builder.machine(1LL << 40)   // A
      .machine(kItemBytes)     // M
      .machine(1LL << 40)      // B
      .machine(1LL << 40)      // C
      .link(0, 1, 8'000'000, kAlways)
      .link(1, 2, 8'000'000, kAlways)
      .item(kItemBytes)  // x
      .source(0, SimTime::zero())
      .request(2, at_sec(250), kPriorityHigh)
      .item(kItemBytes);  // y
  if (y_at_m) {
    builder.source(1, at_sec(400)).request(2, at_sec(1200), kPriorityLow);
  } else {
    builder.source(0, at_sec(400)).request(1, at_sec(1200), kPriorityLow);
  }
  return builder.gamma(SimDuration::seconds(60)).build();
}

// The scenario of StagerWithdrawalTest.RelayHeldLongerByTheRequestForcesAnEngineRun:
// a request due at 1000 s that is withdrawn at once holds no relay, so y
// still reaches M at 400 s, and the replay holds x's relay at M until 310 s
// as the stager did.
TEST(StagerReplayCleanTest, WithdrawnRequestHoldsNoRelay) {
  DynamicStager stager(relay_scenario(false), kFullOneC4, c4_options());
  stager.on_event({SimTime::zero(), NewRequestEvent{"d0", Request(MachineId(3), at_sec(1000),
                                                                  kPriorityLow)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(3)), DynamicRequestStatus::kPending);
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(3)}});
  std::size_t satisfied = 0;
  EXPECT_EQ(replay_mismatch(stager, &satisfied), "");
  EXPECT_EQ(satisfied, 2u);
}

// At 150 s x's relay copy sits at M. A request for x at M would make it a
// destination copy, held for good, but y fills M from 400 s: the request
// closes unsatisfied at once and never counts, so the replay keeps M a relay.
TEST(StagerReplayCleanTest, RequestAtARelayThatCannotBeKeptNeverCounts) {
  DynamicStager stager(relay_scenario(true), kFullOneC4, c4_options());
  const std::size_t replans = stager.replans();
  stager.on_event({at_sec(150), NewRequestEvent{"d0", Request(MachineId(1), at_sec(1000),
                                                              kPriorityLow)}});
  EXPECT_EQ(stager.request_status("d0", MachineId(1)), DynamicRequestStatus::kUnsatisfied);
  EXPECT_EQ(stager.gc_extensions_refused(), 0u);
  EXPECT_EQ(stager.replans(), replans) << "a request that never counts changes no plan";
  std::size_t satisfied = 0;
  EXPECT_EQ(replay_mismatch(stager, &satisfied), "");
  EXPECT_EQ(satisfied, 2u);
}

// At 150 s x's relay copy sits at M, held until 310 s. A request for x at C
// due at 1000 s would hold it until 1060 s, past y's arrival at M: it is
// refused and closes unsatisfied, and the relay keeps its hold.
TEST(StagerReplayCleanTest, LaterDeadlineThatARelayCannotHoldIsRefused) {
  DynamicStager stager(relay_scenario(true), kFullOneC4, c4_options());
  stager.on_event({at_sec(150), NewRequestEvent{"d0", Request(MachineId(3), at_sec(1000),
                                                              kPriorityLow)}});
  EXPECT_EQ(stager.request_status("d0", MachineId(3)), DynamicRequestStatus::kUnsatisfied);
  EXPECT_EQ(stager.gc_extensions_refused(), 1u);
  std::size_t satisfied = 0;
  EXPECT_EQ(replay_mismatch(stager, &satisfied), "");
  EXPECT_EQ(satisfied, 2u);
}

// A deadline of 330 s holds x's relay at M until 390 s, which fits before
// y's arrival. Its withdrawal lowers the gc time back to 310 s: the plan,
// which charged the relay to 390 s, is not kept, and the engine runs.
TEST(StagerReplayCleanTest, WithdrawalThatShortensARelayHoldRunsTheEngine) {
  DynamicStager stager(relay_scenario(true), kFullOneC4, c4_options());
  stager.on_event({at_sec(150), NewRequestEvent{"d0", Request(MachineId(3), at_sec(330),
                                                              kPriorityLow)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(3)), DynamicRequestStatus::kPending);
  ASSERT_TRUE(stager.planned_arrival("d0", MachineId(3)).is_infinite());
  const std::size_t builds = stager.residual_builds();
  stager.on_event({at_sec(150), CancelRequestEvent{"d0", MachineId(3)}});
  EXPECT_EQ(stager.withdrawals_kept_plan(), 0u);
  EXPECT_EQ(stager.residual_builds(), builds + 1);
  std::size_t satisfied = 0;
  EXPECT_EQ(replay_mismatch(stager, &satisfied), "");
  EXPECT_EQ(satisfied, 2u);
}

}  // namespace
}  // namespace datastage
