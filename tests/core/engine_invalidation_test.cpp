// Focused tests of the engine's route-cache invalidation — the one piece of
// machinery the paper does not prescribe. Each test constructs a situation
// where a specific invalidation rule must (or must not) fire, and checks the
// Dijkstra-run counter plus the schedule against paranoid mode.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

EngineOptions c4_options() {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights{1.0, 1.0};
  return options;
}

TEST(EngineInvalidationTest, StorageConflictInvalidates) {
  // Two items and a tiny intermediate relay that can hold only one of them:
  // scheduling item 0 through the relay must invalidate item 1's plan (its
  // cached tree also went through the relay, whose capacity is now consumed).
  const Scenario s = ScenarioBuilder()
                         .machine(kGB)
                         .machine(1'500'000)  // relay: fits one 1 MB item
                         .machine(kGB)
                         .machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(0, 1, 8'000'000, kAlways)  // parallel: no link conflict
                         .link(1, 2, 8'000'000, kAlways)
                         .link(1, 3, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(30))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(3, at_min(30))
                         .build();
  StagingEngine engine(s, c4_options());
  auto best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  engine.apply_full_path_one(*best);

  // Item 1's plan must be recomputed: through the relay is now impossible
  // (the relay is an intermediate, holding item 0 until gc; gc is past item
  // 1's deadline window start... capacity is occupied during the transfer).
  best = engine.best_candidate();
  // With the relay full until gc (36 min) and no alternative route, item 1
  // has no satisfiable path left.
  EXPECT_FALSE(best.has_value());
  const StagingResult result = engine.finish();
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_FALSE(result.outcomes[1][0].satisfied);
}

TEST(EngineInvalidationTest, DisjointStorageDoesNotInvalidate) {
  // Same shape but a roomy relay: scheduling item 0 must NOT force item 1's
  // recompute — its hold still fits.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB)
                         .machine(kGB)  // roomy relay
                         .machine(kGB)
                         .machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(1, 2, 8'000'000, kAlways)
                         .link(1, 3, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(30))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(3, at_min(30))
                         .build();
  StagingEngine engine(s, c4_options());
  auto best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  const std::size_t runs_after_first = engine.counts().dijkstra_runs;
  EXPECT_EQ(runs_after_first, 2u);
  engine.apply_full_path_one(*best);

  best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  // Only the scheduled item went dirty; it is exhausted, so zero recomputes.
  // The other item's plan was reused — UNLESS its tree shared the first
  // parallel link; parallel links keep the trees disjoint here.
  EXPECT_LE(engine.counts().dijkstra_runs, runs_after_first + 1);
  engine.apply_full_path_one(*best);
  const StagingResult result = engine.finish();
  EXPECT_TRUE(result.outcomes[0][0].satisfied);
  EXPECT_TRUE(result.outcomes[1][0].satisfied);
}

TEST(EngineInvalidationTest, LinkConflictInvalidatesOnlyOverlapping) {
  // Three items share one link, but their feasible service windows are far
  // apart in time; scheduling one reserves an interval that overlaps only
  // the plans that planned to use that exact interval.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .item(1'000'000)
                         .source(0, at_min(40))  // can only plan after minute 40
                         .request(1, at_min(70))
                         .build();
  StagingEngine engine(s, c4_options());
  auto best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(engine.counts().dijkstra_runs, 2u);
  EXPECT_EQ(best->item, ItemId(0));  // earlier deadline -> more urgent
  engine.apply_hop(*best);

  // Item 1's plan starts at minute 40; the reservation at t=0 does not
  // overlap it, so no recompute is needed for item 1.
  best = engine.best_candidate();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->item, ItemId(1));
  EXPECT_EQ(engine.counts().dijkstra_runs, 2u);  // zero extra runs
}

TEST(EngineInvalidationTest, LazyEqualsParanoidOnDenseContention) {
  // A generated, heavily contended instance: the strongest end-to-end check
  // that the conservative invalidation is exact.
  GeneratorConfig config;
  config.min_machines = 8;
  config.max_machines = 8;
  config.min_requests_per_machine = 8;
  config.max_requests_per_machine = 8;
  config.min_bandwidth_bps = 50'000;
  config.max_bandwidth_bps = 300'000;
  Rng rng(5150);
  const Scenario s = generate_scenario(config, rng);

  for (const SchedulerSpec& spec : paper_pairs()) {
    EngineOptions lazy;
    lazy.criterion = spec.criterion;
    lazy.eu = EUWeights::from_log10_ratio(1.0);
    EngineOptions paranoid = lazy;
    paranoid.paranoid = true;
    const StagingResult a = run_spec(spec, s, lazy);
    const StagingResult b = run_spec(spec, s, paranoid);
    ASSERT_EQ(a.schedule.size(), b.schedule.size()) << spec.name();
    EXPECT_TRUE(std::equal(a.schedule.steps().begin(), a.schedule.steps().end(),
                           b.schedule.steps().begin()))
        << spec.name();
    EXPECT_LT(a.dijkstra_runs, b.dijkstra_runs) << spec.name();
  }
}

}  // namespace
}  // namespace datastage
