#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "model/scenario_io.hpp"
#include "net/topology.hpp"

namespace datastage {
namespace {

GeneratorConfig default_config() { return GeneratorConfig{}; }

Scenario generate(std::uint64_t seed, GeneratorConfig config = default_config()) {
  Rng rng(seed);
  return generate_scenario(config, rng);
}

TEST(GeneratorTest, ProducesValidScenario) {
  const Scenario s = generate(1);
  EXPECT_TRUE(s.validate().empty());
}

TEST(GeneratorTest, MachineCountWithinPaperRange) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Scenario s = generate(seed);
    EXPECT_GE(s.machine_count(), 10u);
    EXPECT_LE(s.machine_count(), 12u);
  }
}

TEST(GeneratorTest, CapacitiesWithinPaperRange) {
  const Scenario s = generate(2);
  for (const Machine& m : s.machines) {
    EXPECT_GE(m.capacity_bytes, std::int64_t{10} * 1024 * 1024);
    EXPECT_LE(m.capacity_bytes, std::int64_t{20} * 1024 * 1024 * 1024);
  }
}

TEST(GeneratorTest, StronglyConnected) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Scenario s = generate(seed);
    EXPECT_TRUE(strongly_connected(s)) << "seed " << seed;
  }
}

TEST(GeneratorTest, RequestVolumeWithinPaperRange) {
  const Scenario s = generate(3);
  const std::size_t m = s.machine_count();
  EXPECT_GE(s.request_count(), 20 * m);
  EXPECT_LE(s.request_count(), 40 * m);
}

TEST(GeneratorTest, SourceAndDestinationCountsBounded) {
  const Scenario s = generate(4);
  for (const DataItem& item : s.items) {
    EXPECT_GE(item.sources.size(), 1u);
    EXPECT_LE(item.sources.size(), 5u);
    EXPECT_GE(item.requests.size(), 1u);
    EXPECT_LE(item.requests.size(), 5u);
    // Destinations are never sources of the same item (§5.3).
    std::set<std::int32_t> sources;
    for (const SourceLocation& src : item.sources) sources.insert(src.machine.value());
    for (const Request& r : item.requests) {
      EXPECT_EQ(sources.count(r.destination.value()), 0u);
    }
  }
}

TEST(GeneratorTest, ItemSizesAndBandwidthsWithinPaperRange) {
  const Scenario s = generate(5);
  for (const DataItem& item : s.items) {
    EXPECT_GE(item.size_bytes, 10 * 1024);
    EXPECT_LE(item.size_bytes, 100 * 1024 * 1024);
  }
  for (const PhysicalLink& pl : s.phys_links) {
    EXPECT_GE(pl.bandwidth_bps, 10'000);
    EXPECT_LE(pl.bandwidth_bps, 1'500'000);
  }
}

TEST(GeneratorTest, TimingParametersWithinPaperRange) {
  const Scenario s = generate(6);
  EXPECT_EQ(s.horizon, SimTime::zero() + SimDuration::hours(2));
  EXPECT_EQ(s.gc_gamma, SimDuration::minutes(6));
  for (const DataItem& item : s.items) {
    const SimTime start = item.sources.front().available_at;
    EXPECT_GE(start, SimTime::zero());
    EXPECT_LE(start, SimTime::zero() + SimDuration::minutes(60));
    // All sources of one item share the item's start time (§5.3).
    for (const SourceLocation& src : item.sources) {
      EXPECT_EQ(src.available_at, start);
    }
    for (const Request& r : item.requests) {
      EXPECT_GE(r.deadline - start, SimDuration::minutes(15));
      EXPECT_LE(r.deadline - start, SimDuration::minutes(60));
      EXPECT_GE(r.priority, 0);
      EXPECT_LE(r.priority, 2);
    }
  }
}

TEST(GeneratorTest, VirtualLinksRespectSiblingStructure) {
  const Scenario s = generate(7);
  // Windows of one physical link share its duration choice, never overlap,
  // and only windows starting before the keep-cutoff are retained.
  const GeneratorConfig config;
  for (const VirtualLink& vl : s.virt_links) {
    EXPECT_LT(vl.window.begin, config.keep_links_before);
    EXPECT_FALSE(vl.window.empty());
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  const Scenario a = generate(42);
  const Scenario b = generate(42);
  EXPECT_EQ(scenario_to_string(a), scenario_to_string(b));
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const Scenario a = generate(42);
  const Scenario b = generate(43);
  EXPECT_NE(scenario_to_string(a), scenario_to_string(b));
}

TEST(GeneratorTest, CasesAreStableUnderCountChanges) {
  GeneratorConfig config;
  config.min_requests_per_machine = 4;
  config.max_requests_per_machine = 6;
  const auto two = generate_cases(config, 99, 2);
  const auto five = generate_cases(config, 99, 5);
  ASSERT_EQ(two.size(), 2u);
  ASSERT_EQ(five.size(), 5u);
  EXPECT_EQ(scenario_to_string(two[0]), scenario_to_string(five[0]));
  EXPECT_EQ(scenario_to_string(two[1]), scenario_to_string(five[1]));
}

TEST(GeneratorTest, LoadMultiplierScalesRequests) {
  GeneratorConfig config;
  config.min_requests_per_machine = 20;
  config.max_requests_per_machine = 20;
  config.min_machines = 10;
  config.max_machines = 10;

  Rng rng1(11);
  const Scenario base = generate_scenario(config, rng1);
  config.load_multiplier = 2.0;
  Rng rng2(11);
  const Scenario heavy = generate_scenario(config, rng2);
  EXPECT_EQ(base.request_count(), 200u);
  EXPECT_EQ(heavy.request_count(), 400u);
}

TEST(GeneratorTest, InitialSourceCopiesFitTheirMachines) {
  // Implicitly checked by NetworkState's constructor assertion, but verify
  // the bookkeeping directly over several seeds.
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const Scenario s = generate(seed);
    std::vector<std::int64_t> used(s.machine_count(), 0);
    for (const DataItem& item : s.items) {
      for (const SourceLocation& src : item.sources) {
        used[src.machine.index()] += item.size_bytes;
      }
    }
    for (std::size_t m = 0; m < s.machine_count(); ++m) {
      EXPECT_LE(used[m], s.machines[m].capacity_bytes) << "machine " << m;
    }
  }
}

TEST(GeneratorTest, OutDegreeAtLeastPaperMinimum) {
  const Scenario s = generate(8);
  const Topology topo(s);
  for (std::size_t m = 0; m < s.machine_count(); ++m) {
    // The repair pass may add links, so only the lower bound is guaranteed.
    EXPECT_GE(topo.out_degree(MachineId(static_cast<std::int32_t>(m))), 4);
  }
}

}  // namespace
}  // namespace datastage
