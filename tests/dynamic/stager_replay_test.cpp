// A replanning stager replays its previous replan's route trees (the engine
// verifies them instead of re-running Dijkstra). Property: on generated
// congested event streams with outages, restores, withdrawals and a new
// item, the stager's plan after every event equals the plan of a paranoid
// stager (no cache, no repair, no replay) fed the same events, with the
// replaying stager's refresh serial or parallel.
//
// A withdrawal right after the replan that added the request keeps that
// replan's plan when the engine's watch of the request held
// (StagingEngine::watch, docs/PERFORMANCE.md item 12), and runs the engine
// otherwise. Property: on the same kind of streams, the plan after every
// withdrawal equals the schedule of a fresh engine run on the residual
// scenario, whichever path served it, and most withdrawals keep the plan.
// Hand-built cases pin down each check that sends a withdrawal back to the
// engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/schedule_io.hpp"
#include "dynamic/events.hpp"
#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::OnlineRequest;
using testing::ScenarioBuilder;

constexpr SchedulerSpec kFullOneC4{HeuristicKind::kFullOne, CostCriterion::kC4};

EngineOptions c4_options(bool paranoid) {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.paranoid = paranoid;
  return options;
}

std::string steps_string(std::span<const CommStep> steps) {
  std::string out;
  for (const CommStep& step : steps) {
    out += std::to_string(step.item.value()) + " " + std::to_string(step.from.value()) +
           "->" + std::to_string(step.to.value()) + " l" + std::to_string(step.link.value()) +
           " " + std::to_string(step.start.usec()) + " " +
           std::to_string(step.arrival.usec()) + "\n";
  }
  return out;
}

std::string plan_string(const DynamicStager& stager) {
  return steps_string(stager.planned_steps());
}

/// The independent reference: a freshly constructed engine (no replay, no
/// watch) running `kind`/C4 on the stager's residual scenario.
std::string fresh_plan_string(const DynamicStager& stager,
                              HeuristicKind kind = HeuristicKind::kFullOne) {
  const Scenario residual = stager.residual_scenario();
  StagingEngine engine(residual, c4_options(false));
  run_heuristic(kind, engine);
  return steps_string(engine.finish().schedule.steps());
}

TEST(StagerReplayTest, PlanEqualsParanoidAfterEveryEventOnCongestedStreams) {
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 8;

  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  std::size_t events = 0;
  std::size_t restores = 0;
  std::size_t withdrawals = 0;
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL, 34ULL}) {
    Scenario batch = generate_cases(config, seed, 1).front();
    Rng rng(seed * 7919);
    const std::vector<OnlineRequest> online = testing::split_online(batch, rng);

    EngineOptions live_options = c4_options(false);
    live_options.observer = &observer;
    // Replay reads and writes plan-local state only: the parallel refresh
    // must give the same plans.
    live_options.engine_jobs = seed % 2 == 0 ? 1 : 2;
    DynamicStager live(batch, kFullOneC4, live_options);
    DynamicStager oracle(batch, kFullOneC4, c4_options(true));
    std::vector<PhysLinkId> down;

    const auto feed = [&](const StagingEvent& event) {
      live.on_event(event);
      oracle.on_event(event);
      ++events;
      ASSERT_EQ(plan_string(live), plan_string(oracle))
          << "seed " << seed << ", event " << events << " at " << event.at.usec();
      ASSERT_EQ(live.committed_step_count(), oracle.committed_step_count());
    };

    for (std::size_t i = 0; i < online.size(); ++i) {
      const OnlineRequest& next = online[i];
      // Outages and restores between submits: availability grows back on a
      // restore, which turns replay off for that replan.
      if (rng.uniform_i64(0, 9) == 0) {
        const PhysLinkId link(static_cast<std::int32_t>(
            rng.uniform_i64(0, static_cast<std::int64_t>(batch.phys_links.size()) - 1)));
        if (std::find(down.begin(), down.end(), link) == down.end()) {
          feed({next.at, LinkOutageEvent{link}});
          down.push_back(link);
        }
      } else if (!down.empty() && rng.uniform_i64(0, 3) == 0) {
        feed({next.at, LinkRestoreEvent{down.front()}});
        down.erase(down.begin());
        ++restores;
      }
      if (i == online.size() / 2) {
        // A new item mid-stream, requested at once.
        DataItem item;
        item.name = "adhoc_" + std::to_string(seed);
        item.size_bytes = batch.items.front().size_bytes;
        item.sources.push_back(SourceLocation{MachineId(0), next.at});
        feed({next.at, NewItemEvent{item}});
        feed({next.at, NewRequestEvent{item.name, Request(MachineId(1), next.request.deadline,
                                                          kPriorityHigh)}});
      }
      feed({next.at, NewRequestEvent{next.item, next.request}});
      // A request the replan cannot serve in time is withdrawn at once, as
      // SchedulerService does on a full reject.
      if (live.request_status(next.item, next.request.destination) ==
              DynamicRequestStatus::kPending &&
          live.planned_arrival(next.item, next.request.destination) > next.request.deadline) {
        feed({next.at, CancelRequestEvent{next.item, next.request.destination}});
        ++withdrawals;
      }
    }
    const DynamicResult a = live.finish();
    const DynamicResult b = oracle.finish();
    EXPECT_EQ(schedule_to_string(a.schedule), schedule_to_string(b.schedule)) << seed;
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t r = 0; r < a.requests.size(); ++r) {
      EXPECT_EQ(a.requests[r].satisfied, b.requests[r].satisfied) << seed << " " << r;
      EXPECT_EQ(a.requests[r].arrival, b.requests[r].arrival) << seed << " " << r;
    }
  }
  // The stream exercised what it claims to.
  EXPECT_GT(events, 100u);
  EXPECT_GT(restores, 0u);
  EXPECT_GT(withdrawals, 0u);
  const auto& counters = registry.counters();
  EXPECT_GT(counters.at("engine.tree_replays"), 0u);
  EXPECT_GT(counters.at("engine.replay_misses_links_grew"), 0u);
  EXPECT_GT(counters.at("engine.replay_misses_diverged"), 0u);
}

TEST(StagerWithdrawalTest, PlanAfterEveryWithdrawalEqualsAFreshEngineRun) {
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 8;

  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  std::size_t withdrawals = 0;
  std::size_t kept = 0;
  std::size_t shadow_refreshes = 0;
  // Each heuristic commits its own shape: a hop, a path, a path union.
  for (const HeuristicKind kind :
       {HeuristicKind::kFullOne, HeuristicKind::kPartial, HeuristicKind::kFullAll}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
      for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL, 34ULL, 35ULL, 36ULL}) {
        Scenario batch = generate_cases(config, seed, 1).front();
        Rng rng(seed * 7919);
        const std::vector<OnlineRequest> online = testing::split_online(batch, rng);
        EngineOptions options = c4_options(false);
        options.observer = &observer;
        options.engine_jobs = jobs;
        DynamicStager live(batch, SchedulerSpec{kind, CostCriterion::kC4}, options);
        std::vector<PhysLinkId> down;

        const auto submit = [&](const OnlineRequest& next) {
          live.on_event({next.at, NewRequestEvent{next.item, next.request}});
          if (live.request_status(next.item, next.request.destination) !=
                  DynamicRequestStatus::kPending ||
              live.planned_arrival(next.item, next.request.destination) <=
                  next.request.deadline) {
            return;
          }
          const std::size_t kept_before = live.counts().withdrawals_kept_plan;
          live.on_event({next.at, CancelRequestEvent{next.item, next.request.destination}});
          ++withdrawals;
          ASSERT_EQ(plan_string(live), fresh_plan_string(live, kind))
              << heuristic_name(kind) << ", seed " << seed << ", jobs " << jobs
              << ", withdrawal at " << next.at.usec()
              << (live.counts().withdrawals_kept_plan > kept_before ? " (kept plan)" : " (engine run)");
        };
        for (std::size_t i = 0; i < online.size(); ++i) {
          const OnlineRequest& next = online[i];
          if (rng.uniform_i64(0, 9) == 0) {
            const PhysLinkId link(static_cast<std::int32_t>(
                rng.uniform_i64(0, static_cast<std::int64_t>(batch.phys_links.size()) - 1)));
            if (std::find(down.begin(), down.end(), link) == down.end()) {
              live.on_event({next.at, LinkOutageEvent{link}});
              down.push_back(link);
            }
          } else if (!down.empty() && rng.uniform_i64(0, 3) == 0) {
            live.on_event({next.at, LinkRestoreEvent{down.front()}});
            down.erase(down.begin());
          }
          if (i == online.size() / 2) {
            DataItem item;
            item.name = "adhoc_" + std::to_string(seed);
            item.size_bytes = batch.items.front().size_bytes;
            item.sources.push_back(SourceLocation{MachineId(0), next.at});
            live.on_event({next.at, NewItemEvent{item}});
            submit({next.at, item.name,
                    Request(MachineId(1), next.request.deadline, kPriorityHigh)});
          }
          submit(next);
          if (HasFatalFailure()) return;
        }
        kept += live.counts().withdrawals_kept_plan;
        shadow_refreshes += live.counts().engine.shadow_refreshes;
        live.finish();
      }
    }
  }
  // Most withdrawals kept the plan; the watch cost shadow refreshes, which
  // the metrics count too.
  EXPECT_GT(withdrawals, 50u);
  EXPECT_GT(2 * kept, withdrawals) << kept << " of " << withdrawals;
  EXPECT_LT(kept, withdrawals);
  EXPECT_GT(shadow_refreshes, 0u);
  EXPECT_EQ(registry.counters().at("dynamic.withdrawals_kept_plan"), kept);
  EXPECT_EQ(registry.counters().at("engine.shadow_refreshes"), shadow_refreshes);
}

/// True when the stager plans a step of `item` from -> to starting at `start`.
bool plans_step(const DynamicStager& stager, std::int32_t item, std::int32_t from,
                std::int32_t to, SimTime start) {
  return std::ranges::any_of(stager.planned_steps(), [&](const CommStep& step) {
    return step.item == ItemId(item) && step.from == MachineId(from) &&
           step.to == MachineId(to) && step.start == start;
  });
}

const Interval kAlways{SimTime::zero(), at_min(120)};

/// chain_scenario() with a fourth machine D behind C: item d0 at A,
/// requested at C; D is reachable only through C, 3 s after the start.
Scenario chain_with_tail() {
  return ScenarioBuilder()
      .machine(1 << 30)
      .machine(1 << 30)
      .machine(1 << 30)
      .machine(1 << 30)
      .link(0, 1, 8'000'000, kAlways)
      .link(1, 2, 8'000'000, kAlways)
      .link(2, 3, 8'000'000, kAlways)
      .item(1'000'000)
      .source(0, SimTime::zero())
      .request(2, at_min(30), kPriorityHigh)
      .build();
}

/// Submits d0 at D due in half a second (never in time) and checks the
/// replan left it pending without an on-time arrival: a full reject.
void submit_hopeless(DynamicStager& stager, SimTime at) {
  const SimTime deadline = at + SimDuration::from_usec(500'000);
  stager.on_event({at, NewRequestEvent{"d0", Request(MachineId(3), deadline, kPriorityLow)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(3)), DynamicRequestStatus::kPending);
  ASSERT_TRUE(stager.planned_arrival("d0", MachineId(3)).is_infinite());
}

TEST(StagerWithdrawalTest, WithdrawalOfAnUnusedRequestKeepsThePlan) {
  DynamicStager stager(chain_with_tail(), kFullOneC4, c4_options(false));
  const std::string before = plan_string(stager);
  submit_hopeless(stager, SimTime::zero());
  const std::size_t replans = stager.replans();
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(3)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 1u);
  // It still counts as a replan, and the shadow plan cost refreshes.
  EXPECT_EQ(stager.replans(), replans + 1);
  EXPECT_GT(stager.counts().engine.shadow_refreshes, 0u);
  EXPECT_EQ(stager.request_status("d0", MachineId(3)), DynamicRequestStatus::kCancelled);
  EXPECT_EQ(plan_string(stager), before);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  EXPECT_EQ(stager.finish().satisfied_count(), 1u);
}

TEST(StagerWithdrawalTest, AnyEventOrClockMoveBeforeTheWithdrawalRunsTheEngine) {
  DynamicStager stager(chain_with_tail(), kFullOneC4, c4_options(false));
  // An outage of C->D at the same instant, between submit and withdrawal.
  submit_hopeless(stager, SimTime::zero());
  stager.on_event({SimTime::zero(), LinkOutageEvent{PhysLinkId(2)}});
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(3)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  // The clock moves between submit and withdrawal.
  stager.on_event({at_sec(1), LinkRestoreEvent{PhysLinkId(2)}});
  submit_hopeless(stager, at_sec(1));
  stager.advance_to(at_sec(2));
  stager.on_event({at_sec(2), CancelRequestEvent{"d0", MachineId(3)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  // A withdrawal of another request than the one the last replan watched:
  // a hopeless request at D, then one that C's copy serves by 3 s.
  submit_hopeless(stager, at_sec(2));
  const RequestRef hopeless = stager.newest_request(stager.item_id("d0"));
  stager.on_event({at_sec(2), NewRequestEvent{"d0", Request(MachineId(3), at_min(60),
                                                            kPriorityLow)}});
  ASSERT_EQ(stager.planned_arrival(stager.newest_request(stager.item_id("d0"))), at_sec(3));
  stager.on_event({at_sec(2), CancelRequestEvent{"d0", MachineId(3), hopeless.k}});
  EXPECT_EQ(stager.request_status(hopeless), DynamicRequestStatus::kCancelled);
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
}

TEST(StagerWithdrawalTest, ParanoidStagerAlwaysRunsTheEngine) {
  DynamicStager stager(chain_with_tail(), kFullOneC4, c4_options(true));
  submit_hopeless(stager, SimTime::zero());
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(3)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(stager.counts().engine.shadow_refreshes, 0u);
}

// The two ways a run with the request commits other than a run without it,
// each followed by a miss of the request's deadline: its withdrawal must run
// the engine. Every transfer takes 100 s (100 MB at 1 MB/s), and C4 scores
// a candidate -10 Σ weight + Σ slack in seconds over its satisfiable
// destinations (weights 1, 10, 100 by priority).
constexpr std::int64_t kItemBytes = 100'000'000;

// The request is a satisfiable destination of the candidate that wins the
// first iteration: only its weight puts x ahead of y. x commits its other
// destination, then y takes B->C first, and the request misses.
TEST(StagerWithdrawalTest, RequestInTheWinningCandidateForcesAnEngineRun) {
  const Scenario scenario = ScenarioBuilder()
                                .machine(1LL << 40)  // A
                                .machine(1LL << 40)  // B
                                .machine(1LL << 40)  // C
                                .link(0, 1, 8'000'000, kAlways)
                                .link(1, 2, 8'000'000, kAlways)
                                .item(kItemBytes)  // x: A -> B by 105 s (slack 5)
                                .source(0, SimTime::zero())
                                .request(1, at_sec(105), kPriorityLow)
                                .item(kItemBytes)  // y: B from 100 s -> C by 248 s (slack 48)
                                .source(1, at_sec(100))
                                .request(2, at_sec(248), kPriorityHigh)
                                .build();
  DynamicStager stager(scenario, kFullOneC4, c4_options(false));
  const std::string before = plan_string(stager);
  // x at C by 250 s: 200 s over A->B->C, slack 50, high priority.
  stager.on_event({SimTime::zero(), NewRequestEvent{"d0", Request(MachineId(2), at_sec(250),
                                                                  kPriorityHigh)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(2)), DynamicRequestStatus::kPending);
  ASSERT_GT(stager.planned_arrival("d0", MachineId(2)), at_sec(250));
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(2)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  EXPECT_EQ(plan_string(stager), before);
}

// Another item's candidate wins the first iteration, and the shadow's best
// beats it: the request's large slack makes x's candidate worse. y takes
// A->B first, x's copy reaches B too late to relay to C in time.
TEST(StagerWithdrawalTest, ShadowBeatingTheWinnerForcesAnEngineRun) {
  const Scenario scenario = ScenarioBuilder()
                                .machine(1LL << 40)  // A
                                .machine(1LL << 40)  // B
                                .machine(1LL << 40)  // C
                                .link(0, 1, 8'000'000, kAlways)
                                .link(1, 2, 8'000'000, kAlways)
                                .item(kItemBytes)  // x: A -> B by 300 s (slack 200)
                                .source(0, SimTime::zero())
                                .request(1, at_sec(300), kPriorityHigh)
                                .item(kItemBytes)  // y: A -> B by 340 s (slack 240)
                                .source(0, SimTime::zero())
                                .request(1, at_sec(340), kPriorityHigh)
                                .build();
  DynamicStager stager(scenario, kFullOneC4, c4_options(false));
  const std::string before = plan_string(stager);
  // x at C by 290 s: 200 s over A->B->C, slack 90, low priority.
  stager.on_event({SimTime::zero(), NewRequestEvent{"d0", Request(MachineId(2), at_sec(290),
                                                                  kPriorityLow)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(2)), DynamicRequestStatus::kPending);
  ASSERT_GT(stager.planned_arrival("d0", MachineId(2)), at_sec(290));
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(2)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  EXPECT_EQ(plan_string(stager), before);
}

// The request only moves the item's gc time (its destination C is
// unreachable), and the run with it holds x's relay copy at M longer: y's
// copy no longer fits at M, though without the request it would.
TEST(StagerWithdrawalTest, RelayHeldLongerByTheRequestForcesAnEngineRun) {
  const Scenario scenario = ScenarioBuilder()
                                .machine(1LL << 40)   // A
                                .machine(kItemBytes)  // M: room for one copy
                                .machine(1LL << 40)   // B
                                .machine(1LL << 40)   // C: no links
                                .link(0, 1, 8'000'000, kAlways)
                                .link(1, 2, 8'000'000, kAlways)
                                .item(kItemBytes)  // x: A -> M -> B by 250 s
                                .source(0, SimTime::zero())
                                .request(2, at_sec(250), kPriorityHigh)
                                .item(kItemBytes)  // y: A from 400 s -> M by 1200 s
                                .source(0, at_sec(400))
                                .request(1, at_sec(1200), kPriorityLow)
                                .gamma(SimDuration::seconds(60))
                                .build();
  DynamicStager stager(scenario, kFullOneC4, c4_options(false));
  const std::string before = plan_string(stager);
  // Without the request x's relay at M is gone at 310 s, in time for y.
  ASSERT_TRUE(plans_step(stager, 1, 0, 1, at_sec(400))) << before;
  stager.on_event({SimTime::zero(), NewRequestEvent{"d0", Request(MachineId(3), at_sec(1000),
                                                                  kPriorityLow)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(3)), DynamicRequestStatus::kPending);
  ASSERT_TRUE(stager.planned_arrival("d0", MachineId(3)).is_infinite());
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(3)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  EXPECT_EQ(plan_string(stager), before);
}

// The request names the relay M, which a destination must hold for good
// while y's source arrives there at 500 s: with the request x cannot route
// through M at all, without it x's relay copy is gone at 310 s.
TEST(StagerWithdrawalTest, RequestAtTheOnlyRelayForcesAnEngineRun) {
  const Scenario scenario = ScenarioBuilder()
                                .machine(1LL << 40)   // A
                                .machine(kItemBytes)  // M: room for one copy
                                .machine(1LL << 40)   // B
                                .link(0, 1, 8'000'000, kAlways)
                                .link(1, 2, 8'000'000, kAlways)
                                .item(kItemBytes)  // x: A -> M -> B by 250 s
                                .source(0, SimTime::zero())
                                .request(2, at_sec(250), kPriorityHigh)
                                .item(kItemBytes)  // y: at M from 500 s, wanted at A
                                .source(1, at_sec(500))
                                .request(0, at_sec(1200), kPriorityLow)
                                .gamma(SimDuration::seconds(60))
                                .build();
  DynamicStager stager(scenario, kFullOneC4, c4_options(false));
  const std::string before = plan_string(stager);
  ASSERT_TRUE(plans_step(stager, 0, 1, 2, at_sec(100))) << before;
  stager.on_event({SimTime::zero(), NewRequestEvent{"d0", Request(MachineId(1), at_sec(240),
                                                                  kPriorityLow)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(1)), DynamicRequestStatus::kPending);
  ASSERT_TRUE(stager.planned_arrival("d0", MachineId(1)).is_infinite());
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(1)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  EXPECT_EQ(plan_string(stager), before);
}

// The same choice, another commit: x reaches B at 300 s through M1 or M2
// behind the shared first hop A->M0. M1 is the request's destination, which
// a destination cannot hold for good (y arrives there at 1000 s), so with
// the request x relays through M2; without it, through M1, the lower id.
TEST(StagerWithdrawalTest, SameChoiceOverAnotherPathForcesAnEngineRun) {
  const Scenario scenario = ScenarioBuilder()
                                .machine(1LL << 40)   // A
                                .machine(1LL << 40)   // M0
                                .machine(kItemBytes)  // M1: room for one copy
                                .machine(1LL << 40)   // M2
                                .machine(1LL << 40)   // B
                                .link(0, 1, 8'000'000, kAlways)
                                .link(1, 2, 8'000'000, kAlways)
                                .link(1, 3, 8'000'000, kAlways)
                                .link(2, 4, 8'000'000, kAlways)
                                .link(3, 4, 8'000'000, kAlways)
                                .item(kItemBytes)  // x: A -> M0 -> M1|M2 -> B by 400 s
                                .source(0, SimTime::zero())
                                .request(4, at_sec(400), kPriorityHigh)
                                .item(kItemBytes)  // y: at M1 from 1000 s, wanted at A
                                .source(2, at_sec(1000))
                                .request(0, at_sec(2000), kPriorityLow)
                                .gamma(SimDuration::seconds(60))
                                .build();
  DynamicStager stager(scenario, kFullOneC4, c4_options(false));
  const std::string before = plan_string(stager);
  ASSERT_TRUE(plans_step(stager, 0, 2, 4, at_sec(200))) << before;
  stager.on_event({SimTime::zero(), NewRequestEvent{"d0", Request(MachineId(2), at_sec(350),
                                                                  kPriorityLow)}});
  ASSERT_EQ(stager.request_status("d0", MachineId(2)), DynamicRequestStatus::kPending);
  ASSERT_TRUE(stager.planned_arrival("d0", MachineId(2)).is_infinite());
  stager.on_event({SimTime::zero(), CancelRequestEvent{"d0", MachineId(2)}});
  EXPECT_EQ(stager.counts().withdrawals_kept_plan, 0u);
  EXPECT_EQ(plan_string(stager), fresh_plan_string(stager));
  EXPECT_EQ(plan_string(stager), before);
}

}  // namespace
}  // namespace datastage
