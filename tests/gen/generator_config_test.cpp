// Generator configuration coverage: presets, non-default parameter ranges,
// the at-most-two-parallel-links rule, latency, and many priority classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "model/describe.hpp"
#include "net/topology.hpp"

namespace datastage {
namespace {

TEST(GeneratorConfigTest, PaperPresetIsTheDefault) {
  const GeneratorConfig paper = GeneratorConfig::paper();
  const GeneratorConfig defaults;
  EXPECT_EQ(paper.min_machines, defaults.min_machines);
  EXPECT_EQ(paper.max_requests_per_machine, defaults.max_requests_per_machine);
  EXPECT_EQ(paper.gc_gamma, SimDuration::minutes(6));
  EXPECT_EQ(paper.horizon, SimTime::zero() + SimDuration::hours(2));
}

TEST(GeneratorConfigTest, LightPresetIsSmaller) {
  const GeneratorConfig light = GeneratorConfig::light();
  Rng rng(4);
  const Scenario s = generate_scenario(light, rng);
  EXPECT_LE(s.machine_count(), 10u);
  EXPECT_LE(s.request_count(), 8u * s.machine_count());
  EXPECT_TRUE(strongly_connected(s));
}

TEST(GeneratorConfigTest, CongestedPresetIsOversubscribed) {
  Rng rng1(4);
  Rng rng2(4);
  const Scenario base = generate_scenario(GeneratorConfig::paper(), rng1);
  const Scenario heavy = generate_scenario(GeneratorConfig::congested(), rng2);
  // Identical seed, doubled load multiplier: about twice the demand.
  EXPECT_GT(describe(heavy).demand_supply_ratio,
            1.5 * describe(base).demand_supply_ratio);
}

TEST(GeneratorConfigTest, AtMostTwoParallelLinksByDefault) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Scenario s = generate_scenario(GeneratorConfig::paper(), rng);
    std::map<std::pair<std::int32_t, std::int32_t>, int> parallel;
    for (const PhysicalLink& pl : s.phys_links) {
      ++parallel[{pl.from.value(), pl.to.value()}];
    }
    for (const auto& [pair, count] : parallel) {
      // The strong-connectivity repair pass may add a third in pathological
      // graphs; with degree >= 4 it never fires, so the paper's bound holds.
      EXPECT_LE(count, 2) << pair.first << "->" << pair.second;
    }
  }
}

TEST(GeneratorConfigTest, NoSecondLinksWhenProbabilityZero) {
  GeneratorConfig config = GeneratorConfig::light();
  config.second_link_probability = 0.0;
  Rng rng(6);
  const Scenario s = generate_scenario(config, rng);
  std::map<std::pair<std::int32_t, std::int32_t>, int> parallel;
  for (const PhysicalLink& pl : s.phys_links) {
    ++parallel[{pl.from.value(), pl.to.value()}];
  }
  for (const auto& [pair, count] : parallel) {
    EXPECT_EQ(count, 1) << pair.first << "->" << pair.second;
  }
}

TEST(GeneratorConfigTest, LatencyRangeIsHonored) {
  GeneratorConfig config = GeneratorConfig::light();
  config.min_latency = SimDuration::milliseconds(100);
  config.max_latency = SimDuration::milliseconds(400);
  Rng rng(8);
  const Scenario s = generate_scenario(config, rng);
  for (const PhysicalLink& pl : s.phys_links) {
    EXPECT_GE(pl.latency, SimDuration::milliseconds(100));
    EXPECT_LE(pl.latency, SimDuration::milliseconds(400));
  }
}

TEST(GeneratorConfigTest, FivePriorityClasses) {
  GeneratorConfig config = GeneratorConfig::light();
  config.priority_classes = 5;
  Rng rng(9);
  const Scenario s = generate_scenario(config, rng);
  Priority max_seen = 0;
  for (const DataItem& item : s.items) {
    for (const Request& r : item.requests) {
      EXPECT_GE(r.priority, 0);
      EXPECT_LT(r.priority, 5);
      max_seen = std::max(max_seen, r.priority);
    }
  }
  EXPECT_GT(max_seen, 2);  // classes beyond the paper's three are exercised

  // The full pipeline handles 5 classes with a matching weighting.
  const PriorityWeighting weighting({1.0, 3.0, 9.0, 27.0, 81.0});
  EngineOptions options;
  options.weighting = weighting;
  options.eu = EUWeights::from_log10_ratio(1.0);
  const StagingResult result = run_spec({HeuristicKind::kFullOne, CostCriterion::kC4}, s, options);
  EXPECT_GT(weighted_value(s, weighting, result.outcomes), 0.0);
}

TEST(GeneratorConfigTest, HugePresetIsValidAndScalable) {
  const GeneratorConfig huge = GeneratorConfig::huge();
  EXPECT_TRUE(huge.validation_errors().empty());
  EXPECT_TRUE(huge.scalable_sampling);
  EXPECT_GE(huge.min_machines, 5000);
  EXPECT_GE(static_cast<std::int64_t>(huge.min_machines) *
                huge.min_requests_per_machine,
            500'000);
}

// The scalable sampling path must produce valid, strongly connected
// scenarios with the same structural guarantees as the paper path.
TEST(GeneratorConfigTest, ScalableSamplingProducesValidScenarios) {
  GeneratorConfig config = GeneratorConfig::light();
  config.scalable_sampling = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Scenario s = generate_scenario(config, rng);  // check_valid inside
    EXPECT_TRUE(strongly_connected(s));
    EXPECT_GE(s.machine_count(), 8u);
    for (const DataItem& item : s.items) {
      ASSERT_FALSE(item.sources.empty());
      ASSERT_FALSE(item.requests.empty());
      for (const Request& r : item.requests) {
        for (const SourceLocation& src : item.sources) {
          EXPECT_NE(r.destination, src.machine);
        }
      }
    }
  }
}

// --- parameter validation (exit-2 diagnostics) ----------------------------

TEST(GeneratorConfigDeathTest, ReversedMachineRangeDies) {
  GeneratorConfig config = GeneratorConfig::light();
  config.min_machines = 20;
  config.max_machines = 10;
  EXPECT_FALSE(config.validation_errors().empty());
  EXPECT_EXIT(config.validate_or_die(), testing::ExitedWithCode(2),
              "min_machines > max_machines");
}

TEST(GeneratorConfigDeathTest, ReversedItemBytesRangeDies) {
  GeneratorConfig config = GeneratorConfig::light();
  config.min_item_bytes = 1024;
  config.max_item_bytes = 512;
  EXPECT_EXIT(config.validate_or_die(), testing::ExitedWithCode(2),
              "min_item_bytes > max_item_bytes");
}

TEST(GeneratorConfigDeathTest, ReversedOutDegreeRangeDiesThroughGenerate) {
  GeneratorConfig config = GeneratorConfig::light();
  config.min_out_degree = 9;
  config.max_out_degree = 3;
  Rng rng(1);
  // generate_scenario validates before drawing anything.
  EXPECT_EXIT(generate_scenario(config, rng), testing::ExitedWithCode(2),
              "min_out_degree > max_out_degree");
}

TEST(GeneratorConfigDeathTest, RequestIdOverflowDies) {
  GeneratorConfig config = GeneratorConfig::light();
  // 100k machines x 50k requests/machine = 5e9 > INT32_MAX: the old code
  // wrapped the 32-bit request ids silently inside the generator loop.
  config.min_machines = 100'000;
  config.max_machines = 100'000;
  config.min_requests_per_machine = 50'000;
  config.max_requests_per_machine = 50'000;
  EXPECT_EXIT(config.validate_or_die(), testing::ExitedWithCode(2),
              "overflows 32-bit request ids");
}

TEST(GeneratorConfigDeathTest, LoadMultiplierOverflowDies) {
  GeneratorConfig config = GeneratorConfig::light();
  config.min_machines = 10'000;
  config.max_machines = 10'000;
  config.min_requests_per_machine = 10'000;
  config.max_requests_per_machine = 10'000;
  config.load_multiplier = 1e6;  // 1e8 requests x 1e6 -> far past INT32_MAX
  EXPECT_EXIT(config.validate_or_die(), testing::ExitedWithCode(2),
              "overflows 32-bit request ids");
}

TEST(GeneratorConfigDeathTest, ZeroLoadMultiplierDies) {
  GeneratorConfig config = GeneratorConfig::light();
  config.load_multiplier = 0.0;
  EXPECT_EXIT(config.validate_or_die(), testing::ExitedWithCode(2),
              "load_multiplier must be > 0");
}

TEST(GeneratorConfigDeathTest, TooFewMachinesDies) {
  GeneratorConfig config = GeneratorConfig::light();
  config.min_machines = 1;
  config.max_machines = 1;
  EXPECT_EXIT(config.validate_or_die(), testing::ExitedWithCode(2),
              "min_machines must be >= 2");
}

TEST(GeneratorConfigTest, ValidationReportsEveryProblemAtOnce) {
  GeneratorConfig config = GeneratorConfig::light();
  config.min_machines = 20;
  config.max_machines = 10;
  config.min_bandwidth_bps = 100;
  config.max_bandwidth_bps = 10;
  config.priority_classes = 0;
  const std::vector<std::string> errors = config.validation_errors();
  EXPECT_GE(errors.size(), 3u);
}

TEST(GeneratorConfigTest, AllPresetsAreValid) {
  EXPECT_TRUE(GeneratorConfig::paper().validation_errors().empty());
  EXPECT_TRUE(GeneratorConfig::light().validation_errors().empty());
  EXPECT_TRUE(GeneratorConfig::congested().validation_errors().empty());
  EXPECT_TRUE(GeneratorConfig::huge().validation_errors().empty());
}

TEST(GeneratorConfigTest, KeepLinksBeforeZeroKeepsAllWindows) {
  GeneratorConfig clipped = GeneratorConfig::light();
  GeneratorConfig full = GeneratorConfig::light();
  full.keep_links_before = SimTime::zero();
  Rng rng1(12);
  Rng rng2(12);
  const Scenario a = generate_scenario(clipped, rng1);
  const Scenario b = generate_scenario(full, rng2);
  // Unclipped generation keeps the late windows the default drops.
  EXPECT_GT(b.virt_links.size(), a.virt_links.size());
}

}  // namespace
}  // namespace datastage
