// Differential test: the time-dependent multiple-source Dijkstra against a
// brute-force reference that enumerates every simple path and simulates its
// hop-by-hop earliest departure. On small generated networks both must agree
// on the earliest arrival at every machine (and on unreachability). Under
// tight storage the reference is a plain O(n^2) Dijkstra instead, compared
// edge for edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "gen/generator.hpp"
#include "model/fault.hpp"
#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "routing/dijkstra.hpp"

namespace datastage {
namespace {

/// Earliest arrival at `target` over every simple path from any copy of
/// `item`, by exhaustive DFS. Exponential — small graphs only.
class BruteForce {
 public:
  BruteForce(const NetworkState& state, const Topology& topology, ItemId item)
      : state_(state), topology_(topology), item_(item) {}

  std::optional<SimTime> earliest_arrival(MachineId target) {
    best_ = SimTime::infinity();
    std::vector<bool> visited(state_.scenario().machine_count(), false);
    for (const Copy& copy : state_.copies(item_)) {
      visited.assign(visited.size(), false);
      visited[copy.machine.index()] = true;
      if (copy.machine == target) best_ = min(best_, copy.available_at);
      dfs(copy.machine, copy.available_at, target, visited);
    }
    if (best_.is_infinite()) return std::nullopt;
    return best_;
  }

 private:
  void dfs(MachineId at, SimTime ready, MachineId target, std::vector<bool>& visited) {
    // No pruning on `ready >= best_`: a later intermediate arrival cannot
    // beat the incumbent at the target because departures are FIFO — but we
    // keep the search exact and simple by pruning only on equality of best
    // lower bound.
    if (ready >= best_) return;  // any further hop arrives strictly later
    for (const VirtLinkId link : topology_.outgoing(at)) {
      const VirtualLink& vl = state_.scenario().vlink(link);
      if (visited[vl.to.index()]) continue;
      const auto fit = state_.earliest_fit(item_, link, ready);
      if (!fit.has_value()) continue;
      if (fit->start >= state_.hold_end(item_, at)) continue;
      if (!state_.can_hold(item_, vl.to, fit->start)) continue;
      if (vl.to == target) best_ = min(best_, fit->arrival);
      visited[vl.to.index()] = true;
      dfs(vl.to, fit->arrival, target, visited);
      visited[vl.to.index()] = false;
    }
  }

  const NetworkState& state_;
  const Topology& topology_;
  ItemId item_;
  SimTime best_ = SimTime::infinity();
};

/// Storage checks the reference Dijkstra made, split by whether the headroom
/// shortcut would have decided them.
struct StorageProbe {
  std::size_t shortcut = 0;
  std::size_t window = 0;
};

/// NetworkState::can_hold without the headroom shortcut: the hold window
/// query on the raw step function.
bool reference_can_hold(const NetworkState& state, ItemId item, MachineId machine,
                        SimTime start, StorageProbe& probe) {
  const std::int64_t bytes = state.scenario().item(item).size_bytes;
  const StorageTimeline& st = state.storage(machine);
  ++(bytes <= st.headroom() ? probe.shortcut : probe.window);
  const std::optional<SimTime> existing = state.hold_begin(item, machine);
  if (existing.has_value() && *existing <= start) return true;
  const SimTime end = existing.has_value() ? *existing : state.hold_end(item, machine);
  return bytes <= st.capacity() - st.max_usage(Interval{start, end});
}

/// One machine's label in the reference forest.
struct ReferenceLabel {
  SimTime arrival = SimTime::infinity();
  bool has_parent = false;
  TreeEdge edge;
};

/// The adapted Dijkstra in its plainest form: O(n^2) selection of the
/// unsettled label with the least (arrival, machine), every outgoing link
/// searched, storage checked by the raw window query. Under tight storage a
/// later arrival can unlock a hold an earlier one cannot, so the brute force
/// above is no oracle there; this is, down to the parent edges.
std::vector<ReferenceLabel> reference_forest(const NetworkState& state,
                                             const Topology& topology, ItemId item,
                                             StorageProbe& probe) {
  const Scenario& scenario = state.scenario();
  std::vector<ReferenceLabel> labels(scenario.machine_count());
  std::vector<bool> settled(scenario.machine_count(), false);
  for (const Copy& copy : state.copies(item)) {
    ReferenceLabel& root = labels[copy.machine.index()];
    root.arrival = min(root.arrival, copy.available_at);
  }
  while (true) {
    std::size_t u = labels.size();
    for (std::size_t m = 0; m < labels.size(); ++m) {
      if (settled[m] || labels[m].arrival.is_infinite()) continue;
      if (u == labels.size() || labels[m].arrival < labels[u].arrival) u = m;
    }
    if (u == labels.size()) return labels;
    settled[u] = true;
    const MachineId from(static_cast<std::int32_t>(u));
    const SimTime ready = labels[u].arrival;
    for (const VirtLinkId link : topology.outgoing(from)) {
      const MachineId to = scenario.vlink(link).to;
      ReferenceLabel& label = labels[to.index()];
      if (settled[to.index()]) continue;
      const std::optional<LinkFit> fit = state.earliest_fit(item, link, ready);
      if (!fit.has_value() || fit->start >= state.hold_end(item, from)) continue;
      if (fit->arrival >= label.arrival) continue;
      if (!reference_can_hold(state, item, to, fit->start, probe)) continue;
      label = ReferenceLabel{fit->arrival, true,
                             TreeEdge{from, to, link, fit->start, fit->arrival}};
    }
  }
}

class DijkstraReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraReferenceTest, MatchesBruteForceOnSmallNetworks) {
  GeneratorConfig config;
  config.min_machines = 5;
  config.max_machines = 6;
  config.min_out_degree = 2;
  config.max_out_degree = 3;
  config.min_requests_per_machine = 2;
  config.max_requests_per_machine = 3;
  Rng rng(GetParam());
  const Scenario scenario = generate_scenario(config, rng);

  Topology topology(scenario);
  NetworkState state(scenario);

  for (std::size_t i = 0; i < scenario.item_count() && i < 8; ++i) {
    const ItemId item(static_cast<std::int32_t>(i));
    const RouteTree tree = compute_route_tree(state, topology, item);
    BruteForce brute(state, topology, item);
    for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
      const MachineId machine(static_cast<std::int32_t>(m));
      const auto expected = brute.earliest_arrival(machine);
      if (expected.has_value()) {
        ASSERT_TRUE(tree.reached(machine))
            << "item " << i << " machine " << m << " seed " << GetParam();
        EXPECT_EQ(tree.arrival(machine), *expected)
            << "item " << i << " machine " << m << " seed " << GetParam();
      } else {
        EXPECT_FALSE(tree.reached(machine))
            << "item " << i << " machine " << m << " seed " << GetParam();
      }
    }
  }
}

TEST_P(DijkstraReferenceTest, MatchesBruteForceAfterReservations) {
  GeneratorConfig config;
  config.min_machines = 5;
  config.max_machines = 5;
  config.min_out_degree = 2;
  config.max_out_degree = 2;
  config.min_requests_per_machine = 2;
  config.max_requests_per_machine = 2;
  Rng rng(GetParam() * 31);
  const Scenario scenario = generate_scenario(config, rng);

  Topology topology(scenario);
  NetworkState state(scenario);

  // Mutate the state: commit the first hop of the first few items' trees,
  // then re-compare the remaining items against brute force on the loaded
  // network.
  std::size_t committed = 0;
  for (std::size_t i = 0; i < scenario.item_count() && committed < 4; ++i) {
    const ItemId item(static_cast<std::int32_t>(i));
    const RouteTree tree = compute_route_tree(state, topology, item);
    for (const DataItem& data = scenario.item(item); const Request& r : data.requests) {
      if (tree.reached(r.destination) && tree.has_parent(r.destination)) {
        const TreeEdge hop = tree.first_hop(r.destination);
        state.apply_transfer(item, hop.link, hop.start);
        ++committed;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < scenario.item_count() && i < 6; ++i) {
    const ItemId item(static_cast<std::int32_t>(i));
    const RouteTree tree = compute_route_tree(state, topology, item);
    BruteForce brute(state, topology, item);
    for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
      const MachineId machine(static_cast<std::int32_t>(m));
      const auto expected = brute.earliest_arrival(machine);
      ASSERT_EQ(tree.reached(machine), expected.has_value())
          << "item " << i << " machine " << m;
      if (expected.has_value()) {
        EXPECT_EQ(tree.arrival(machine), *expected) << "item " << i << " machine " << m;
      }
    }
  }
}

// Fault-degraded fragments: brownouts split each virtual link into pieces of
// one physical link with their own bandwidths, so the occupancy (and the
// departure bound built from it) differs per fragment. Capacities leave about
// one item of headroom above the permanent source copies, so storage checks
// go both through the headroom shortcut and through the window query, and
// some relaxations are rejected for capacity. The forest must equal the
// reference's edge for edge, every path must replay through can_apply, and a
// pruned, targeted run must agree with the full forest on every target.
TEST_P(DijkstraReferenceTest, MatchesReferenceOnDegradedFragmentsNearCapacity) {
  GeneratorConfig config;
  config.min_machines = 5;
  config.max_machines = 6;
  config.min_out_degree = 2;
  config.max_out_degree = 3;
  config.min_requests_per_machine = 2;
  config.max_requests_per_machine = 3;
  Rng rng(GetParam() * 7919);
  Scenario base = generate_scenario(config, rng);

  std::int64_t max_item = 0;
  std::vector<std::int64_t> permanent(base.machine_count(), 0);
  for (const DataItem& item : base.items) {
    max_item = std::max(max_item, item.size_bytes);
    for (const SourceLocation& src : item.sources) {
      permanent[src.machine.index()] += item.size_bytes;
    }
  }
  for (std::size_t m = 0; m < base.machine_count(); ++m) {
    base.machines[m].capacity_bytes =
        permanent[m] + max_item * rng.uniform_i64(2, 4) / 2;
  }

  FaultSpec faults;
  const SimDuration quarter = (base.horizon - SimTime::zero()) / 4;
  for (std::size_t l = 0; l < base.phys_links.size(); ++l) {
    const PhysLinkId link(static_cast<std::int32_t>(l));
    const SimTime a = SimTime::zero() + quarter / 2 * rng.uniform_i64(0, 3);
    faults.degradations.push_back({link, Interval{a, a + quarter}, 0.5});
    faults.degradations.push_back({link, Interval{a + quarter / 2, a + quarter * 2}, 0.25});
  }
  const Scenario scenario = apply_faults(base, faults);
  std::size_t split_links = 0;
  for (std::size_t l = 0; l < scenario.virt_links.size(); ++l) {
    for (std::size_t k = l + 1; k < scenario.virt_links.size(); ++k) {
      const VirtualLink& x = scenario.virt_links[l];
      const VirtualLink& y = scenario.virt_links[k];
      if (x.phys == y.phys && x.bandwidth_bps != y.bandwidth_bps) ++split_links;
    }
  }
  ASSERT_GT(split_links, 0U);

  Topology topology(scenario);
  NetworkState state(scenario);
  DijkstraStats stats;
  StorageProbe probe;
  std::size_t targets_checked = 0;

  const auto check_item = [&](ItemId item) {
    const RouteTree tree = compute_route_tree(state, topology, item, {}, &stats);
    const std::vector<ReferenceLabel> expected =
        reference_forest(state, topology, item, probe);
    for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
      const MachineId machine(static_cast<std::int32_t>(m));
      EXPECT_EQ(tree.arrival(machine), expected[m].arrival)
          << "item " << item.value() << " machine " << m;
      ASSERT_EQ(tree.has_parent(machine), expected[m].has_parent)
          << "item " << item.value() << " machine " << m;
      if (!tree.has_parent(machine)) continue;
      EXPECT_EQ(tree.parent_edge(machine), expected[m].edge)
          << "item " << item.value() << " machine " << m;
      // Replaying the path hop by hop on a copy of the state: every edge is
      // a transfer can_apply accepts once its predecessors are committed.
      NetworkState replay = state;
      for (const TreeEdge& edge : tree.path_to(machine)) {
        ASSERT_TRUE(replay.can_apply(item, edge.link, edge.start))
            << "item " << item.value() << " machine " << m;
        EXPECT_EQ(replay.apply_transfer(item, edge.link, edge.start).arrival, edge.arrival);
      }
    }

    // Pruned at the latest deadline and stopped once the destinations settle:
    // targets within the horizon keep their full-forest labels, the rest stay
    // beyond it.
    std::vector<MachineId> targets;
    SimTime latest = SimTime::zero();
    for (const Request& r : scenario.item(item).requests) {
      targets.push_back(r.destination);
      latest = max(latest, r.deadline);
    }
    DijkstraOptions options;
    options.prune_after = latest;
    options.targets = targets;
    const RouteTree pruned = compute_route_tree(state, topology, item, options);
    for (const MachineId t : targets) {
      ++targets_checked;
      if (tree.arrival(t) <= latest) {
        EXPECT_EQ(pruned.arrival(t), tree.arrival(t)) << "item " << item.value();
        EXPECT_EQ(pruned.has_parent(t), tree.has_parent(t)) << "item " << item.value();
        if (pruned.has_parent(t)) {
          EXPECT_EQ(pruned.parent_edge(t), tree.parent_edge(t)) << "item " << item.value();
        }
      } else {
        EXPECT_GT(pruned.arrival(t), latest) << "item " << item.value();
      }
    }
  };

  // Check, commit one first hop, repeat: storage fills towards capacity.
  for (std::size_t i = 0; i < scenario.item_count(); ++i) {
    const ItemId item(static_cast<std::int32_t>(i));
    check_item(item);
    const RouteTree tree = compute_route_tree(state, topology, item);
    for (const Request& r : scenario.item(item).requests) {
      if (tree.reached(r.destination) && tree.has_parent(r.destination)) {
        const TreeEdge hop = tree.first_hop(r.destination);
        state.apply_transfer(item, hop.link, hop.start);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < scenario.item_count(); ++i) {
    check_item(ItemId(static_cast<std::int32_t>(i)));
  }

  EXPECT_GT(targets_checked, 0U);
  EXPECT_LE(stats.link_searches, stats.relaxations);
  EXPECT_LE(stats.storage_checks, stats.link_searches);
  EXPECT_LE(stats.capacity_rejections, stats.storage_checks);
  EXPECT_GT(stats.capacity_rejections, 0U);
  EXPECT_GT(probe.window, 0U) << "no storage check missed the headroom shortcut";
  EXPECT_GT(probe.shortcut, 0U) << "no storage check took the headroom shortcut";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraReferenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace datastage
