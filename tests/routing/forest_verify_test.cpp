// verify_route_tree re-derives a logged route tree on a network state with
// the kernel's own relaxation test (test_out_edge). Property: on generated
// scenarios with degraded-fragment links, twin physical links and storage
// near capacity, a storage-free targeted tree verifies against the state it
// was computed on, entry for entry, unless a second link of a kept edge's
// sender->receiver group ties its arrival (an independent scan finds the
// ties). Hand-built cases: a reservation that moves a kept edge, a tied
// second window, and a hold that no longer fits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gen/generator.hpp"
#include "model/fault.hpp"
#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = std::int64_t{1} << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

/// A small generated scenario whose links carry degraded fragments, some
/// physical links with a twin (same ends, rate and windows), and storage
/// one to two items above the source copies.
Scenario verify_scenario(std::uint64_t seed) {
  GeneratorConfig config;
  config.min_machines = 5;
  config.max_machines = 6;
  config.min_out_degree = 2;
  config.max_out_degree = 3;
  config.min_requests_per_machine = 2;
  config.max_requests_per_machine = 3;
  Rng rng(seed);
  Scenario base = generate_scenario(config, rng);

  const std::size_t phys = base.phys_links.size();
  const std::size_t virt = base.virt_links.size();
  for (std::size_t l = 0; l < phys; ++l) {
    if (!rng.bernoulli(0.3)) continue;
    const PhysLinkId twin(static_cast<std::int32_t>(base.phys_links.size()));
    base.phys_links.push_back(base.phys_links[l]);
    for (std::size_t v = 0; v < virt; ++v) {
      if (base.virt_links[v].phys.index() != l) continue;
      VirtualLink copy = base.virt_links[v];
      copy.phys = twin;
      base.virt_links.push_back(copy);
    }
  }

  std::int64_t max_item = 0;
  std::vector<std::int64_t> permanent(base.machine_count(), 0);
  for (const DataItem& item : base.items) {
    max_item = std::max(max_item, item.size_bytes);
    for (const SourceLocation& src : item.sources) {
      permanent[src.machine.index()] += item.size_bytes;
    }
  }
  for (std::size_t m = 0; m < base.machine_count(); ++m) {
    base.machines[m].capacity_bytes = permanent[m] + max_item * rng.uniform_i64(2, 4) / 2;
  }

  FaultSpec faults;
  const SimDuration quarter = (base.horizon - SimTime::zero()) / 4;
  for (std::size_t l = 0; l < base.phys_links.size(); ++l) {
    const SimTime a = SimTime::zero() + quarter / 2 * rng.uniform_i64(0, 3);
    faults.degradations.push_back(
        {PhysLinkId(static_cast<std::int32_t>(l)), Interval{a, a + quarter}, 0.5});
  }
  return apply_faults(base, faults);
}

/// The tree the engine would refresh for `item`: targeted at its
/// destinations, pruned at its latest deadline.
struct EngineTree {
  RouteTree tree{0};
  SimTime prune_after = SimTime::zero();
  bool storage_free = false;
};

EngineTree engine_tree(const NetworkState& state, const Topology& topology, ItemId item) {
  std::vector<MachineId> targets;
  EngineTree out;
  for (const Request& r : state.scenario().item(item).requests) {
    targets.push_back(r.destination);
    out.prune_after = max(out.prune_after, r.deadline);
  }
  DijkstraOptions options;
  options.prune_after = out.prune_after;
  options.targets = targets;
  DijkstraWorkspace workspace;
  out.storage_free =
      compute_route_tree_into(state, topology, item, options, workspace, out.tree);
  return out;
}

/// True when another virtual link than `edge`'s from its sender to its
/// receiver offers `item` a transfer departing at or after `ready` and
/// before the sender's hold end, and arriving by the edge's arrival and
/// the prune horizon: the edge then has a tie.
bool has_tie(const NetworkState& state, ItemId item, const TreeEdge& edge, SimTime ready,
             SimTime prune_after) {
  const Scenario& scenario = state.scenario();
  for (std::size_t l = 0; l < scenario.virt_links.size(); ++l) {
    const VirtLinkId link(static_cast<std::int32_t>(l));
    if (link == edge.link || scenario.vlink_from(link) != edge.from ||
        scenario.vlink_to(link) != edge.to) {
      continue;
    }
    const auto fit = state.earliest_fit(item, link, ready);
    if (fit.has_value() && fit->start < state.hold_end(item, edge.from) &&
        fit->arrival <= edge.arrival && fit->arrival <= prune_after) {
      return true;
    }
  }
  return false;
}

class ForestVerifyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForestVerifyPropertyTest, ComputedTreeVerifiesOnItsOwnStateEntryForEntry) {
  const Scenario scenario = verify_scenario(GetParam() * 6421);
  const Topology topology(scenario);
  NetworkState state(scenario);
  std::size_t verified = 0;
  std::vector<LoggedEdge> log;
  RouteTree rebuilt(0);

  const auto check_item = [&](ItemId item) {
    const EngineTree computed = engine_tree(state, topology, item);
    if (!computed.storage_free) return;
    bool tie = false;
    for (const TreeEdge& e : computed.tree.entries()) {
      if (e.from.valid() &&
          has_tie(state, item, e, computed.tree.arrival(e.from), computed.prune_after)) {
        tie = true;
      }
    }
    log.clear();
    log_route_tree(scenario, computed.tree, log);
    const ForestCheck check =
        verify_route_tree(state, topology, item, log, computed.prune_after, rebuilt);
    if (tie) {
      EXPECT_EQ(check, ForestCheck::kMismatch) << "item " << item.value();
      return;
    }
    ++verified;
    ASSERT_EQ(check, ForestCheck::kVerified) << "item " << item.value();
    const std::span<const TreeEdge> want = computed.tree.entries();
    const std::span<const TreeEdge> got = rebuilt.entries();
    ASSERT_EQ(got.size(), want.size()) << "item " << item.value();
    for (std::size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(got[e], want[e]) << "item " << item.value() << " entry " << e;
    }
  };

  // Check, commit one first hop, repeat: reservations and storage fill up.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < scenario.item_count(); ++i) {
      const ItemId item(static_cast<std::int32_t>(i));
      check_item(item);
      const RouteTree tree = compute_route_tree(state, topology, item);
      for (const Request& r : scenario.item(item).requests) {
        if (tree.reached(r.destination) && tree.has_parent(r.destination)) {
          const TreeEdge hop = tree.first_hop(r.destination);
          if (state.can_apply(item, hop.link, hop.start)) {
            state.apply_transfer(item, hop.link, hop.start);
          }
          break;
        }
      }
    }
  }
  EXPECT_GT(verified, 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestVerifyPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The generated family must exercise both outcomes of the property: on an
// untouched state only a tie refuses a storage-free tree.
TEST(ForestVerifyCoverageTest, ScenarioFamilyHasTiesAndVerifiedTrees) {
  std::size_t verified = 0;
  std::size_t tied = 0;
  std::vector<LoggedEdge> log;
  RouteTree rebuilt(0);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Scenario scenario = verify_scenario(seed * 6421);
    const Topology topology(scenario);
    const NetworkState state(scenario);
    for (std::size_t i = 0; i < scenario.item_count(); ++i) {
      const ItemId item(static_cast<std::int32_t>(i));
      const EngineTree computed = engine_tree(state, topology, item);
      if (!computed.storage_free) continue;
      log.clear();
      log_route_tree(scenario, computed.tree, log);
      const ForestCheck check =
          verify_route_tree(state, topology, item, log, computed.prune_after, rebuilt);
      (check == ForestCheck::kVerified ? verified : tied) += 1;
    }
  }
  EXPECT_GT(verified, 0U);
  EXPECT_GT(tied, 0U);
}

/// Logs the targeted tree of item 0 on `state`.
std::vector<LoggedEdge> logged_tree(const NetworkState& state, const Topology& topology,
                                    SimTime* prune_after) {
  const EngineTree computed = engine_tree(state, topology, ItemId(0));
  EXPECT_TRUE(computed.storage_free);
  *prune_after = computed.prune_after;
  std::vector<LoggedEdge> log;
  log_route_tree(state.scenario(), computed.tree, log);
  return log;
}

TEST(ForestVerifyTest, RefusesAfterAReservationMovesAKeptEdge) {
  // x and y both start at A; x goes A->B->C, y A->B. Once y holds A->B at
  // the time x's tree used it, x's edge departs later.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(1, 2, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(30))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  const Topology topology(s);
  NetworkState state(s);
  SimTime prune_after;
  const std::vector<LoggedEdge> log = logged_tree(state, topology, &prune_after);
  ASSERT_EQ(log.size(), 3U);
  RouteTree tree(0);
  ASSERT_EQ(verify_route_tree(state, topology, ItemId(0), log, prune_after, tree),
            ForestCheck::kVerified);

  state.apply_transfer(ItemId(1), VirtLinkId(0), SimTime::zero());
  EXPECT_EQ(verify_route_tree(state, topology, ItemId(0), log, prune_after, tree),
            ForestCheck::kMismatch);
}

TEST(ForestVerifyTest, RefusesASecondWindowThatTiesTheArrival) {
  // A->B twice, at the same rate and window: Dijkstra keeps the first link,
  // and the second arrives as early.
  const auto build = [](bool twin) {
    ScenarioBuilder b;
    b.machine(kGB).machine(kGB).machine(kGB).link(0, 1, 8'000'000, kAlways);
    if (twin) b.link(0, 1, 8'000'000, kAlways);
    return b.link(1, 2, 8'000'000, kAlways)
        .item(1'000'000)
        .source(0, SimTime::zero())
        .request(2, at_min(30))
        .build();
  };
  for (const bool twin : {false, true}) {
    const Scenario s = build(twin);
    const Topology topology(s);
    const NetworkState state(s);
    SimTime prune_after;
    const std::vector<LoggedEdge> log = logged_tree(state, topology, &prune_after);
    RouteTree tree(0);
    EXPECT_EQ(verify_route_tree(state, topology, ItemId(0), log, prune_after, tree),
              twin ? ForestCheck::kMismatch : ForestCheck::kVerified)
        << (twin ? "twin" : "single");
  }
}

TEST(ForestVerifyTest, ReportsAHoldThatNoLongerFits) {
  // x relays A->B->C through B, which has room for one item. y, sent D->B
  // on a link of its own, then fills B for good: x's edge into B still
  // re-derives, but B cannot hold the relay copy.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(1'000'000).machine(kGB).machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .link(1, 2, 8'000'000, kAlways)
                         .link(3, 1, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(2, at_min(30))
                         .item(1'000'000)
                         .source(3, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  const Topology topology(s);
  NetworkState state(s);
  SimTime prune_after;
  const std::vector<LoggedEdge> log = logged_tree(state, topology, &prune_after);
  RouteTree tree(0);
  ASSERT_EQ(verify_route_tree(state, topology, ItemId(0), log, prune_after, tree),
            ForestCheck::kVerified);

  const VirtLinkId d_to_b(2);
  ASSERT_EQ(s.vlink_from(d_to_b), MachineId(3));
  state.apply_transfer(ItemId(1), d_to_b, SimTime::zero());
  EXPECT_EQ(verify_route_tree(state, topology, ItemId(0), log, prune_after, tree),
            ForestCheck::kHoldMisfit);
}

}  // namespace
}  // namespace datastage
