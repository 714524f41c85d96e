// The engine keeps every work count in one EngineCounts record and publishes
// it to an attached registry when a run finishes. Property: after finish(),
// each field of counts() equals the registry counter of its name, and the
// registry's engine.*, dijkstra.* and net.* counters are exactly the
// published names and the finish counters: under every heuristic, paranoid,
// at one and four engine jobs (whose counts are equal), and for a
// replanning DynamicStager, whose summed counts() equal the registry.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/heuristics.hpp"
#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

/// One published counter and the field of EngineCounts that is its value.
struct CountField {
  std::string name;
  std::function<std::size_t(const EngineCounts&)> value;
};

/// Every field of EngineCounts under its registry name, written out here
/// rather than read from the engine so that the publish table cannot drift
/// from it unnoticed.
std::vector<CountField> count_fields() {
  std::vector<CountField> fields = {
      {"engine.iterations", [](const EngineCounts& c) { return c.iterations; }},
      {"engine.scoring_rounds", [](const EngineCounts& c) { return c.scoring_rounds; }},
      {"engine.tree_recomputes", [](const EngineCounts& c) { return c.dijkstra_runs; }},
      {"engine.tree_repairs", [](const EngineCounts& c) { return c.tree_repairs; }},
      {"engine.tree_replays", [](const EngineCounts& c) { return c.tree_replays; }},
      {"engine.replay_misses", [](const EngineCounts& c) { return c.total_misses(); }},
      {"engine.shadow_refreshes", [](const EngineCounts& c) { return c.shadow_refreshes; }},
      {"engine.cache_hits", [](const EngineCounts& c) { return c.cache_hits; }},
      {"engine.candidates_scored", [](const EngineCounts& c) { return c.candidates_scored; }},
      {"engine.best_rescans", [](const EngineCounts& c) { return c.best_rescans; }},
      {"engine.steps_committed", [](const EngineCounts& c) { return c.steps_committed; }},
      {"engine.requests_satisfied", [](const EngineCounts& c) { return c.requests_satisfied; }},
      {"engine.invalidations_link", [](const EngineCounts& c) { return c.invalidations_link; }},
      {"engine.invalidations_storage",
       [](const EngineCounts& c) { return c.invalidations_storage; }},
      {"engine.invalidations_self", [](const EngineCounts& c) { return c.invalidations_self; }},
      {"engine.invalidations_checked",
       [](const EngineCounts& c) { return c.invalidations_checked; }},
      {"engine.invalidations_scan_equiv",
       [](const EngineCounts& c) { return c.invalidations_scan_equiv; }},
      {"engine.guard_trips", [](const EngineCounts& c) { return c.guard_trips; }},
      {"dijkstra.heap_pops", [](const EngineCounts& c) { return c.dijkstra.pops; }},
      {"dijkstra.relaxations", [](const EngineCounts& c) { return c.dijkstra.relaxations; }},
      {"dijkstra.link_searches", [](const EngineCounts& c) { return c.dijkstra.link_searches; }},
      {"dijkstra.storage_checks", [](const EngineCounts& c) { return c.dijkstra.storage_checks; }},
      {"dijkstra.capacity_rejections",
       [](const EngineCounts& c) { return c.dijkstra.capacity_rejections; }},
      {"dijkstra.kept_entries", [](const EngineCounts& c) { return c.dijkstra.kept_entries; }},
  };
  for (std::size_t r = 0; r < kReplayMissKinds; ++r) {
    fields.push_back({std::string("engine.replay_misses_") +
                          replay_miss_name(static_cast<ReplayMiss>(r)),
                      [r](const EngineCounts& c) { return c.replay_misses[r]; }});
  }
  return fields;
}

const std::vector<std::string> kNetNames = {"net.transfers", "net.link_reservations",
                                            "net.storage_allocations", "net.hold_extensions"};
/// What observe_finish counts besides the published record (no trace
/// attached, so no lost_* counters).
const std::vector<std::string> kFinishNames = {"engine.requests_satisfied_final",
                                               "engine.requests_dropped", "engine.runs"};

/// Every field of `counts` equals the registry counter of its name, and the
/// registry holds no engine.*, dijkstra.* or net.* counter but those named
/// here.
void expect_published(const EngineCounts& counts, const obs::MetricsRegistry& registry,
                      const std::string& label) {
  std::set<std::string> expected(kNetNames.begin(), kNetNames.end());
  expected.insert(kFinishNames.begin(), kFinishNames.end());
  for (const CountField& field : count_fields()) {
    expected.insert(field.name);
    EXPECT_EQ(registry.counter_value(field.name), field.value(counts)) << label << " " << field.name;
  }
  std::set<std::string> published;
  for (const auto& [name, value] : registry.counters()) {
    if (name.starts_with("engine.") || name.starts_with("dijkstra.") || name.starts_with("net.")) {
      published.insert(name);
    }
  }
  EXPECT_EQ(published, expected) << label;
  // Each transfer is one committed step and reserves one link busy window.
  EXPECT_EQ(registry.counter_value("net.transfers"), counts.steps_committed) << label;
  EXPECT_EQ(registry.counter_value("net.link_reservations"), counts.steps_committed) << label;
}

void expect_equal_counts(const EngineCounts& a, const EngineCounts& b, const std::string& label) {
  for (const CountField& field : count_fields()) {
    EXPECT_EQ(field.value(a), field.value(b)) << label << " " << field.name;
  }
}

EngineOptions c4_options() {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  return options;
}

/// A paper-preset case and a congested one: storage binds in both (capacity
/// rejections, storage invalidations), and repairs fire.
std::vector<Scenario> batch_cases() {
  return {generate_cases(GeneratorConfig::paper(), 4, 1).front(),
          generate_cases(GeneratorConfig::congested(), 1, 1).front()};
}

struct BatchRun {
  EngineCounts counts;
  std::size_t transfers = 0;
  std::size_t storage_allocations = 0;
  std::size_t hold_extensions = 0;
};

/// Runs `kind` on `scenario` to the end with a registry attached, checks the
/// registry against counts() and returns them.
BatchRun run_and_check(const Scenario& scenario, HeuristicKind kind, EngineOptions options,
                       const std::string& label) {
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  options.observer = &observer;
  StagingEngine engine(scenario, options);
  run_heuristic(kind, engine);
  engine.finish();
  expect_published(engine.counts(), registry, label);
  const NetworkState& net = engine.network();
  EXPECT_EQ(registry.counter_value("net.transfers"), net.transfer_count()) << label;
  EXPECT_EQ(registry.counter_value("net.storage_allocations"), net.storage_allocations()) << label;
  EXPECT_EQ(registry.counter_value("net.hold_extensions"), net.hold_extensions()) << label;
  EXPECT_EQ(registry.counter_value("engine.runs"), 1u) << label;
  return {engine.counts(), net.transfer_count(), net.storage_allocations(),
          net.hold_extensions()};
}

class EngineCountsTest : public ::testing::TestWithParam<HeuristicKind> {};

TEST_P(EngineCountsTest, RegistryEqualsCountsAfterFinish) {
  std::size_t case_index = 0;
  EngineCounts total;
  for (const Scenario& scenario : batch_cases()) {
    const std::string label =
        std::string(heuristic_name(GetParam())) + " case " + std::to_string(case_index++);
    total += run_and_check(scenario, GetParam(), c4_options(), label).counts;
  }
  // The cases reach every count a batch run keeps; replay, shadow refreshes
  // and guard trips are the stager's and the guard test's.
  for (const CountField& field : count_fields()) {
    if (field.name.starts_with("engine.replay_misses") || field.name == "engine.tree_replays" ||
        field.name == "engine.shadow_refreshes" || field.name == "engine.guard_trips") {
      EXPECT_EQ(field.value(total), 0u) << field.name;
    } else {
      EXPECT_GT(field.value(total), 0u) << field.name;
    }
  }
}

TEST_P(EngineCountsTest, ParanoidRegistryEqualsCountsAfterFinish) {
  EngineOptions options = c4_options();
  options.paranoid = true;
  const BatchRun run = run_and_check(batch_cases().front(), GetParam(), options,
                                     std::string(heuristic_name(GetParam())) + " paranoid");
  EXPECT_EQ(run.counts.tree_repairs, 0u);
  EXPECT_EQ(run.counts.cache_hits, 0u);
  EXPECT_GT(run.counts.dijkstra_runs, 0u);
}

TEST_P(EngineCountsTest, CountsAreEqualAtOneAndFourEngineJobs) {
  std::size_t case_index = 0;
  for (const Scenario& scenario : batch_cases()) {
    const std::string label =
        std::string(heuristic_name(GetParam())) + " case " + std::to_string(case_index++);
    EngineOptions serial = c4_options();
    serial.engine_jobs = 1;
    EngineOptions parallel = c4_options();
    parallel.engine_jobs = 4;
    const BatchRun one = run_and_check(scenario, GetParam(), serial, label + " jobs 1");
    const BatchRun four = run_and_check(scenario, GetParam(), parallel, label + " jobs 4");
    expect_equal_counts(one.counts, four.counts, label);
    EXPECT_EQ(one.transfers, four.transfers) << label;
    EXPECT_EQ(one.storage_allocations, four.storage_allocations) << label;
    EXPECT_EQ(one.hold_extensions, four.hold_extensions) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Heuristics, EngineCountsTest,
                         ::testing::Values(HeuristicKind::kPartial, HeuristicKind::kFullOne,
                                           HeuristicKind::kFullAll),
                         [](const ::testing::TestParamInfo<HeuristicKind>& param_info) {
                           return std::string(heuristic_name(param_info.param));
                         });

TEST(EngineCountsGuardTest, GuardTripIsPublished) {
  EngineOptions options = c4_options();
  options.max_iterations = 3;
  const BatchRun run =
      run_and_check(batch_cases().front(), HeuristicKind::kPartial, options, "guard");
  EXPECT_EQ(run.counts.guard_trips, 1u);
  EXPECT_EQ(run.counts.iterations, 3u);
}

// A stager replans on every event: each submit's replan watches its request
// (shadow refreshes), and a reset-started run replays the previous one's
// trees or records why not. The registry holds the sum of every run's
// counts, which the stager keeps as counts().engine.
TEST(EngineCountsStagerTest, RegistryEqualsSummedCountsAfterEveryReplan) {
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 8;
  Scenario batch = generate_cases(config, 31, 1).front();
  Rng rng(31 * 7919);
  const std::vector<testing::OnlineRequest> online = testing::split_online(batch, rng);
  ASSERT_GT(online.size(), 4u);

  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  EngineOptions options = c4_options();
  options.observer = &observer;
  DynamicStager stager(batch, SchedulerSpec{HeuristicKind::kFullOne, CostCriterion::kC4},
                       options);
  const auto check = [&](const std::string& label) {
    expect_published(stager.counts().engine, registry, label);
    EXPECT_EQ(registry.counter_value("engine.runs"),
              stager.counts().replans - stager.counts().withdrawals_kept_plan)
        << label;
  };
  check("initial plan");
  for (std::size_t i = 0; i < online.size(); ++i) {
    const testing::OnlineRequest& next = online[i];
    if (i == online.size() / 2) {
      stager.on_event({next.at, LinkOutageEvent{PhysLinkId(0)}});
      check("outage");
    }
    stager.on_event({next.at, NewRequestEvent{next.item, next.request}});
    check("submit " + std::to_string(i));
    if (HasFailure()) return;
  }
  const EngineCounts& total = stager.counts().engine;
  EXPECT_GT(total.shadow_refreshes, 0u);
  EXPECT_GT(total.tree_replays, 0u);
  EXPECT_GT(total.total_misses(), 0u);
  EXPECT_GT(total.tree_repairs, 0u);
  stager.finish();
}

}  // namespace
}  // namespace datastage
