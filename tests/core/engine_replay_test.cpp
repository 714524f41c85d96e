// Replay of the previous run's route trees (StagingEngine::reset).
//
// An engine started by reset() logs its refreshed trees and its commits; the
// next reset-started run rebuilds a dirty plan by verifying the logged tree
// instead of running Dijkstra while it retraces that run. Every run must give
// the schedule a fresh engine gives, and replay must stop where its
// exactness argument stops: grown links, a changed item, storage that
// rejects, a diverging commit, or a tie between parallel links.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/schedule_io.hpp"
#include "gen/generator.hpp"
#include "net/storage_timeline.hpp"
#include "net/topology.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::ScenarioBuilder;
using Miss = ReplayMiss;

EngineOptions c4_options() {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  return options;
}

/// A scenario with the topology and source storage a reset needs. Held by
/// pointer: the engine keeps references into it.
struct World {
  Scenario scenario;
  Topology topology;
  std::vector<StorageTimeline> storage;
};

std::unique_ptr<World> make_world(Scenario scenario) {
  auto world = std::make_unique<World>();
  world->scenario = std::move(scenario);
  world->topology.rebuild(world->scenario);
  std::vector<StorageCharge> charges;
  for (const DataItem& item : world->scenario.items) {
    for (const SourceLocation& src : item.sources) {
      if (!src.hold_window().empty()) {
        charges.push_back(StorageCharge{src.machine, item.size_bytes, src.hold_window()});
      }
    }
  }
  StorageTimeline::per_machine(world->scenario.machines, charges,
                               "test sources exceed capacity", world->storage);
  return world;
}

std::string fresh_schedule(const Scenario& scenario, HeuristicKind kind) {
  StagingEngine engine(scenario, c4_options());
  run_heuristic(kind, engine);
  return schedule_to_string(engine.finish().schedule);
}

std::string run(StagingEngine& engine, const World& world, HeuristicKind kind) {
  engine.reset(world.scenario, world.topology, world.storage);
  run_heuristic(kind, engine);
  return schedule_to_string(engine.finish_run());
}

/// run() with a fresh trace attached through `observer` (the engine reads it
/// at reset); returns the run's trace events.
std::vector<obs::TraceEvent> traced_run(StagingEngine& engine, obs::RunObserver& observer,
                                        const World& world, HeuristicKind kind,
                                        std::string* schedule = nullptr) {
  std::ostringstream lines;
  obs::RunTrace trace(lines);
  observer.trace = &trace;
  const std::string scheduled = run(engine, world, kind);
  observer.trace = nullptr;
  if (schedule != nullptr) *schedule = scheduled;
  std::istringstream in(lines.str());
  std::string error;
  std::optional<std::vector<obs::TraceEvent>> events = obs::read_trace(in, &error);
  EXPECT_TRUE(events.has_value()) << error;
  return events.value_or(std::vector<obs::TraceEvent>{});
}

std::size_t misses(const StagingEngine& engine) {
  return engine.replay_counts().total_misses();
}

/// An engine whose logging run (the first reset) has scheduled `first`.
std::unique_ptr<StagingEngine> logged_engine(const World& first, HeuristicKind kind) {
  auto engine = std::make_unique<StagingEngine>(first.scenario, first.topology,
                                                first.storage, c4_options());
  run_heuristic(kind, *engine);  // a constructor-started run logs nothing
  run(*engine, first, kind);
  EXPECT_EQ(engine->tree_replays(), 0u);
  EXPECT_EQ(misses(*engine), 0u);
  return engine;
}

/// Huge-shaped cases have storage to spare: no storage check rejects.
std::vector<Scenario> roomy_cases(std::uint64_t seed, std::size_t count) {
  GeneratorConfig config = GeneratorConfig::huge();
  config.min_machines = config.max_machines = 12;
  config.min_requests_per_machine = config.max_requests_per_machine = 10;
  return generate_cases(config, seed, count);
}

TEST(EngineReplayTest, IdenticalScenarioReplaysEveryRefresh) {
  for (const HeuristicKind kind :
       {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
    for (const Scenario& scenario : roomy_cases(5150, 2)) {
      const std::unique_ptr<World> world = make_world(scenario);
      const std::unique_ptr<StagingEngine> engine = logged_engine(*world, kind);
      const std::string expected = fresh_schedule(world->scenario, kind);
      EXPECT_EQ(run(*engine, *world, kind), expected) << heuristic_name(kind);
      EXPECT_EQ(engine->dijkstra_runs(), 0u) << heuristic_name(kind);
      EXPECT_GT(engine->tree_replays(), 0u) << heuristic_name(kind);
      EXPECT_EQ(misses(*engine), 0u);
      // Replayed trees are logged again: the next run replays them too.
      EXPECT_EQ(run(*engine, *world, kind), expected);
      EXPECT_EQ(engine->dijkstra_runs(), 0u);
    }
  }
}

TEST(EngineReplayTest, ConstructorRunsNeitherLogNorReplay) {
  const std::unique_ptr<World> world = make_world(roomy_cases(5150, 1).front());
  StagingEngine engine(world->scenario, world->topology, world->storage, c4_options());
  run_heuristic(HeuristicKind::kFullOne, engine);
  EXPECT_EQ(engine.tree_replays(), 0u);
  EXPECT_EQ(misses(engine), 0u);
  // The first reset-started run has no log to replay and counts no misses.
  run(engine, *world, HeuristicKind::kFullOne);
  EXPECT_EQ(engine.tree_replays(), 0u);
  EXPECT_EQ(misses(engine), 0u);
  EXPECT_GT(engine.dijkstra_runs(), 0u);
}

TEST(EngineReplayTest, ParanoidNeverReplays) {
  const std::unique_ptr<World> world = make_world(roomy_cases(5150, 1).front());
  EngineOptions options = c4_options();
  options.paranoid = true;
  StagingEngine engine(world->scenario, world->topology, world->storage, options);
  run_heuristic(HeuristicKind::kFullOne, engine);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(run(engine, *world, HeuristicKind::kFullOne),
              fresh_schedule(world->scenario, HeuristicKind::kFullOne));
    EXPECT_EQ(engine.tree_replays(), 0u);
    EXPECT_EQ(misses(engine), 0u);
  }
}

TEST(EngineReplayTest, GrownWindowTurnsReplayOffForTheRun) {
  const std::unique_ptr<World> before = make_world(testing::chain_scenario());
  Scenario grown = testing::chain_scenario();
  grown.virt_links[0].window.end = at_min(150);
  const std::unique_ptr<World> after = make_world(grown);

  const std::unique_ptr<StagingEngine> engine =
      logged_engine(*before, HeuristicKind::kFullOne);
  EXPECT_EQ(run(*engine, *after, HeuristicKind::kFullOne),
            fresh_schedule(after->scenario, HeuristicKind::kFullOne));
  EXPECT_EQ(engine->tree_replays(), 0u);
  EXPECT_GT(engine->dijkstra_runs(), 0u);
  EXPECT_EQ(engine->replay_counts().miss(Miss::kLinksGrew), engine->dijkstra_runs());
}

TEST(EngineReplayTest, SplitAndRenumberedLinksReplayWithTheNewIds) {
  const std::unique_ptr<World> before = make_world(testing::chain_scenario());
  // An outage cuts the A->B window in two, away from the transfer, and the
  // virtual links come in another order: every id changes.
  Scenario split = testing::chain_scenario();
  const VirtualLink ab = split.virt_links[0];
  const VirtualLink bc = split.virt_links[1];
  split.virt_links = {
      bc,
      VirtualLink{ab.phys, ab.bandwidth_bps, Interval{at_min(60), at_min(120)}},
      VirtualLink{ab.phys, ab.bandwidth_bps, Interval{SimTime::zero(), at_min(50)}},
  };
  const std::unique_ptr<World> after = make_world(split);

  const std::unique_ptr<StagingEngine> engine =
      logged_engine(*before, HeuristicKind::kPartial);
  const std::string schedule = run(*engine, *after, HeuristicKind::kPartial);
  EXPECT_EQ(schedule, fresh_schedule(after->scenario, HeuristicKind::kPartial));
  EXPECT_EQ(engine->dijkstra_runs(), 0u);
  EXPECT_GT(engine->tree_replays(), 0u);
  // The replayed tree names the new links: A->B is link 2, B->C link 0.
  const Schedule& steps = engine->finish_run();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps.steps()[0].link, VirtLinkId(2));
  EXPECT_EQ(steps.steps()[1].link, VirtLinkId(0));
}

TEST(EngineReplayTest, TiedParallelLinksAreNotReplayed) {
  // Two physical A->B links with the same rate and window: their fits tie,
  // so the kept edge is not the unique earliest arrival of its group.
  const Interval always{SimTime::zero(), at_min(120)};
  const Scenario scenario = ScenarioBuilder()
                                .machine(1 << 30)
                                .machine(1 << 30)
                                .machine(1 << 30)
                                .link(0, 1, 8'000'000, always)
                                .link(0, 1, 8'000'000, always)
                                .link(1, 2, 8'000'000, always)
                                .item(1'000'000)
                                .source(0, SimTime::zero())
                                .request(2, at_min(30))
                                .build();
  const std::unique_ptr<World> world = make_world(scenario);
  const std::unique_ptr<StagingEngine> engine =
      logged_engine(*world, HeuristicKind::kFullOne);
  EXPECT_EQ(run(*engine, *world, HeuristicKind::kFullOne),
            fresh_schedule(scenario, HeuristicKind::kFullOne));
  EXPECT_EQ(engine->tree_replays(), 0u);
  EXPECT_EQ(engine->replay_counts().miss(Miss::kVerifyFailed), 1u);
}

/// Chain A->B->C plus a bypass A->D->C that is slower; B holds `b_capacity`.
ScenarioBuilder relay_builder(std::int64_t b_capacity) {
  const Interval always{SimTime::zero(), at_min(120)};
  ScenarioBuilder builder;
  builder.machine(1 << 30)
      .machine(b_capacity)
      .machine(1 << 30)
      .machine(1 << 30)
      .link(0, 1, 8'000'000, always)
      .link(1, 2, 8'000'000, always)
      .link(0, 3, 8'000'000, always, SimDuration::seconds(5))
      .link(3, 2, 8'000'000, always)
      .item(1'000'000)
      .source(0, SimTime::zero())
      .request(2, at_min(30));
  return builder;
}

TEST(EngineReplayTest, KeptHoldThatNoLongerFitsIsNotReplayed) {
  const std::unique_ptr<World> before = make_world(relay_builder(1'500'000).build());
  // Another item's copy now fills B: the logged path through B is rejected.
  ScenarioBuilder crowded = relay_builder(1'500'000);
  crowded.item(1'000'000).source(1, SimTime::zero()).request(3, at_min(30));
  const std::unique_ptr<World> after = make_world(crowded.build());

  const std::unique_ptr<StagingEngine> engine =
      logged_engine(*before, HeuristicKind::kFullOne);
  const std::string schedule = run(*engine, *after, HeuristicKind::kFullOne);
  EXPECT_EQ(schedule, fresh_schedule(after->scenario, HeuristicKind::kFullOne));
  EXPECT_EQ(engine->replay_counts().miss(Miss::kHoldMisfit), 1u);
  EXPECT_EQ(engine->replay_counts().miss(Miss::kStorageRejected), 0u);
  EXPECT_EQ(engine->replay_counts().miss(Miss::kItemChanged), 1u);  // the new item
  EXPECT_EQ(engine->tree_replays(), 0u);
  // Routed around B, through D.
  const Schedule& steps = engine->finish_run();
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.steps()[0].to, MachineId(3));
}

TEST(EngineReplayTest, TreeFromARunWithStorageRejectionsIsNotReplayed) {
  // B cannot hold the item at all: Dijkstra rejects it and takes the bypass.
  const std::unique_ptr<World> world = make_world(relay_builder(500'000).build());
  const std::unique_ptr<StagingEngine> engine =
      logged_engine(*world, HeuristicKind::kFullOne);
  EXPECT_EQ(run(*engine, *world, HeuristicKind::kFullOne),
            fresh_schedule(world->scenario, HeuristicKind::kFullOne));
  EXPECT_EQ(engine->tree_replays(), 0u);
  EXPECT_EQ(engine->replay_counts().miss(Miss::kStorageRejected), 1u);
  EXPECT_EQ(engine->replay_counts().miss(Miss::kHoldMisfit), 0u);
}

TEST(EngineReplayTest, ChangedItemIsNotReplayedOthersAre) {
  std::vector<Scenario> cases = roomy_cases(5150, 1);
  const std::unique_ptr<World> before = make_world(cases.front());
  Scenario changed = cases.front();
  // A later deadline on item 0's last request: same routes, new item.
  DataItem& item = changed.items.front();
  item.requests.back().deadline = item.requests.back().deadline + SimDuration::seconds(1);
  const std::unique_ptr<World> after = make_world(changed);

  obs::RunObserver observer;
  EngineOptions options = c4_options();
  options.observer = &observer;
  StagingEngine engine(before->scenario, before->topology, before->storage, options);
  run(engine, *before, HeuristicKind::kFullOne);  // the logging run
  std::string schedule;
  const std::vector<obs::TraceEvent> events =
      traced_run(engine, observer, *after, HeuristicKind::kFullOne, &schedule);
  EXPECT_EQ(schedule, fresh_schedule(after->scenario, HeuristicKind::kFullOne));
  EXPECT_GT(engine.replay_counts().miss(Miss::kItemChanged), 0u);
  EXPECT_GT(engine.tree_replays(), 0u);

  std::size_t item0_rebuilds = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.type != "recompute" || e.num("item") != 0) continue;
    ++item0_rebuilds;
    EXPECT_FALSE(e.flag("replayed")) << "iter " << e.num("iter");
  }
  EXPECT_GT(item0_rebuilds, 0u);
}

/// Per iteration, the commit events of one traced run.
std::vector<std::string> commits_by_iteration(const std::vector<obs::TraceEvent>& events) {
  std::vector<std::string> commits;
  for (const obs::TraceEvent& e : events) {
    if (e.type != "commit") continue;
    const auto iter = static_cast<std::size_t>(e.num("iter"));
    if (commits.size() <= iter) commits.resize(iter + 1);
    commits[iter] += std::to_string(e.num("item")) + ":" + std::to_string(e.num("from")) +
                     ">" + std::to_string(e.num("to")) + "@" +
                     std::to_string(e.num("start_usec")) + " ";
  }
  return commits;
}

TEST(EngineReplayTest, DivergingCommitStopsReplayFromThatIteration) {
  std::vector<Scenario> cases = roomy_cases(5151, 1);
  const std::unique_ptr<World> before = make_world(cases.front());
  obs::RunObserver observer;
  EngineOptions options = c4_options();
  options.observer = &observer;
  StagingEngine engine(before->scenario, before->topology, before->storage, options);
  run_heuristic(HeuristicKind::kFullOne, engine);
  const std::vector<obs::TraceEvent> first =
      traced_run(engine, observer, *before, HeuristicKind::kFullOne);  // the logging run

  // Drop the request that the commit in the middle of the run satisfied:
  // the run commits something else there at the latest.
  const std::vector<std::string> first_commits = commits_by_iteration(first);
  const std::size_t middle = first_commits.size() / 2;
  Scenario changed = cases.front();
  bool dropped = false;
  for (const obs::TraceEvent& e : first) {
    if (e.type != "request_satisfied" || static_cast<std::size_t>(e.num("iter")) < middle) {
      continue;
    }
    std::vector<Request>& requests = changed.items[static_cast<std::size_t>(e.num("item"))].requests;
    if (requests.size() < 2) continue;  // keep every item requested
    requests.erase(requests.begin() + e.num("k"));
    dropped = true;
    break;
  }
  ASSERT_TRUE(dropped);
  const std::unique_ptr<World> after = make_world(changed);
  std::string schedule;
  const std::vector<obs::TraceEvent> second =
      traced_run(engine, observer, *after, HeuristicKind::kFullOne, &schedule);
  EXPECT_EQ(schedule, fresh_schedule(after->scenario, HeuristicKind::kFullOne));

  const std::vector<std::string> second_commits = commits_by_iteration(second);
  std::size_t k = 0;
  while (k < first_commits.size() && k < second_commits.size() &&
         first_commits[k] == second_commits[k]) {
    ++k;
  }
  ASSERT_LT(k, second_commits.size()) << "the runs never diverged";
  // Refreshes up to round k precede the diverging commit; none after it
  // replays, and each Dijkstra run after it is a divergence miss.
  std::size_t replays_after = 0;
  std::size_t dijkstra_after = 0;
  for (const obs::TraceEvent& e : second) {
    if (e.type != "recompute" || static_cast<std::size_t>(e.num("iter")) <= k) continue;
    if (e.flag("replayed")) ++replays_after;
    if (!e.flag("replayed") && !e.flag("repaired")) ++dijkstra_after;
  }
  EXPECT_EQ(replays_after, 0u);
  EXPECT_GT(dijkstra_after, 0u);
  EXPECT_EQ(engine.replay_counts().miss(Miss::kDiverged), dijkstra_after);
  EXPECT_GT(engine.tree_replays(), 0u);
}

}  // namespace
}  // namespace datastage
