// Differential test: the time-dependent multiple-source Dijkstra against a
// brute-force reference that enumerates every simple path and simulates its
// hop-by-hop earliest departure. On small generated networks both must agree
// on the earliest arrival at every machine (and on unreachability). Under
// tight storage the reference is a plain O(n^2) Dijkstra instead, compared
// edge for edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "gen/generator.hpp"
#include "model/fault.hpp"
#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "testing/builders.hpp"

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
    for (const OutEdge& out : topology_.out_edges(at)) {
      const VirtLinkId link = out.link;
      const MachineId to = state_.scenario().vlink_to(link);
      if (visited[to.index()]) continue;
      const auto fit = state_.earliest_fit(item_, link, ready);
      if (!fit.has_value()) continue;
      if (fit->start >= state_.hold_end(item_, at)) continue;
      if (!state_.can_hold(item_, to, fit->start)) continue;
      if (to == target) best_ = min(best_, fit->arrival);
      visited[to.index()] = true;
      dfs(to, fit->arrival, target, visited);
      visited[to.index()] = false;
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
    for (const OutEdge& out : topology.out_edges(from)) {
      const VirtLinkId link = out.link;
      const MachineId to = scenario.vlink_to(link);
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

// --- The grouped scan and the indexed heap -------------------------------
//
// The kernel scans each sender's out-edges one receiver group at a time,
// leaves a group at the first window whose departure bound fails, skips
// links whose arrival bound fails or that cannot fit in their window, and
// keeps one heap entry per machine. The scenarios below are built so that
// each of those paths matters: every physical link has three or more
// windows, some senders have two physical links to one receiver (with equal
// or interleaved window begins), degradations split windows into fragments
// of different bandwidths, late sources leave early windows closed before
// they are ready, some windows are exactly one transfer long, and items
// with two sources let a relaxation re-label a root.

/// Occupancy of `bytes` on a virtual link: the kernel's bound, recomputed.
SimDuration occupancy_of(const Scenario& scenario, const VirtualLink& vl,
                         std::int64_t bytes) {
  return transfer_duration(bytes, vl.bandwidth_bps) + scenario.plink(vl.phys).latency;
}

Scenario grouped_scan_scenario(std::uint64_t seed) {
  using testing::at_min;
  Rng rng(seed);
  const auto machines = static_cast<std::int32_t>(rng.uniform_i64(5, 6));
  const std::int64_t bandwidths[] = {20'000, 50'000, 200'000};
  const std::int64_t sizes[] = {500'000, 1'000'000, 2'000'000};

  testing::ScenarioBuilder builder;
  for (std::int32_t m = 0; m < machines; ++m) builder.machine(std::int64_t{1} << 40);

  // Windows live in k slots of the two-hour horizon; a parallel link either
  // repeats the begins of its twin or shifts them by half a slot.
  const auto add_link = [&](std::int32_t from, std::int32_t to, std::int64_t k,
                            SimDuration shift) {
    const SimDuration slot = SimDuration::minutes(120) / k;
    const std::int64_t bps = bandwidths[rng.uniform_i64(0, 2)];
    const SimDuration latency = SimDuration::seconds(rng.uniform_i64(0, 30));
    for (std::int64_t w = 0; w < k; ++w) {
      const SimTime begin = SimTime::zero() + slot * w + shift;
      const SimTime end = begin + slot / 2 + slot / 8 * rng.uniform_i64(-2, 3);
      if (w == 0) {
        builder.link(from, to, bps, Interval{begin, end}, latency);
      } else {
        builder.window(Interval{begin, end});
      }
    }
  };
  for (std::int32_t u = 0; u < machines; ++u) {
    for (std::int32_t v = 0; v < machines; ++v) {
      if (u == v) continue;
      // The ring u -> u+1 keeps every machine reachable.
      if (v != (u + 1) % machines && !rng.bernoulli(0.4)) continue;
      const std::int64_t k = rng.uniform_i64(3, 5);
      add_link(u, v, k, SimDuration::zero());
      if (rng.bernoulli(0.4)) {
        const bool interleaved = rng.bernoulli(0.5);
        add_link(u, v, k,
                 interleaved ? SimDuration::minutes(120) / k / 2 : SimDuration::zero());
      }
    }
  }

  const std::int64_t items = rng.uniform_i64(3, 5);
  for (std::int64_t i = 0; i < items; ++i) {
    builder.item(sizes[rng.uniform_i64(0, 2)]);
    const auto first = static_cast<std::int32_t>(rng.uniform_i64(0, machines - 1));
    builder.source(first, at_min(rng.uniform_i64(0, 40)));
    std::int32_t second = -1;
    if (rng.bernoulli(0.5)) {
      // A late second source a relaxation from the first can beat.
      second = (first + 1 + static_cast<std::int32_t>(rng.uniform_i64(0, machines - 2))) %
               machines;
      builder.source(second, at_min(rng.uniform_i64(40, 90)));
    }
    for (std::int32_t m = 0; m < machines; ++m) {
      if (m == first || m == second || !rng.bernoulli(0.6)) continue;
      builder.request(m, at_min(rng.uniform_i64(30, 120)));
    }
  }
  Scenario base = builder.build_unchecked();

  // Capacities leave one to two items of headroom over the source copies.
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
  for (std::size_t l = 0; l < base.phys_links.size(); ++l) {
    if (!rng.bernoulli(0.5)) continue;
    const SimTime a = at_min(rng.uniform_i64(0, 80));
    faults.degradations.push_back(
        {PhysLinkId(static_cast<std::int32_t>(l)), Interval{a, a + SimDuration::minutes(25)},
         0.5});
  }
  Scenario scenario = apply_faults(base, faults);

  // Shrink some windows to exactly one transfer of some item, so a fit
  // that fills a window to its last microsecond is the only one there is.
  for (VirtualLink& vl : scenario.virt_links) {
    if (!rng.bernoulli(0.3)) continue;
    const DataItem& item = scenario.items[static_cast<std::size_t>(
        rng.uniform_i64(0, static_cast<std::int64_t>(scenario.item_count()) - 1))];
    const SimTime end = vl.window.begin + occupancy_of(scenario, vl, item.size_bytes);
    if (end <= vl.window.end) vl.window.end = end;
  }
  return scenario;
}

/// Asserts `tree` equals the reference forest edge for edge.
void expect_matches_reference(const RouteTree& tree,
                              const std::vector<ReferenceLabel>& expected,
                              const char* what) {
  for (std::size_t m = 0; m < expected.size(); ++m) {
    const MachineId machine(static_cast<std::int32_t>(m));
    EXPECT_EQ(tree.arrival(machine), expected[m].arrival) << what << " machine " << m;
    ASSERT_EQ(tree.has_parent(machine), expected[m].has_parent) << what << " machine " << m;
    if (tree.has_parent(machine)) {
      EXPECT_EQ(tree.parent_edge(machine), expected[m].edge) << what << " machine " << m;
    }
  }
}

class GroupedScanTest : public ::testing::TestWithParam<std::uint64_t> {};

// One workspace serves every run: targeted runs that stop at the target
// break and pruned runs that stop at the prune break leave machines queued,
// and the full runs after them must still equal the reference forest (and a
// fresh workspace's), untargeted and with an infinite or saturating prune
// horizon.
TEST_P(GroupedScanTest, MatchesReferenceWithReusedWorkspace) {
  const Scenario scenario = grouped_scan_scenario(GetParam() * 104729);
  const Topology topology(scenario);
  NetworkState state(scenario);
  DijkstraWorkspace workspace;
  RouteTree tree(0);
  StorageProbe probe;
  DijkstraStats stats;

  std::size_t early_stops = 0;
  const auto check_item = [&](ItemId item) {
    const std::vector<ReferenceLabel> expected =
        reference_forest(state, topology, item, probe);

    // Targeted at one destination, pruned at the item's latest deadline.
    std::vector<MachineId> targets;
    SimTime latest = SimTime::zero();
    for (const Request& r : scenario.item(item).requests) {
      latest = max(latest, r.deadline);
      if (targets.empty()) targets.push_back(r.destination);
    }
    DijkstraOptions targeted;
    targeted.prune_after = latest;
    targeted.targets = targets;
    DijkstraStats run;
    compute_route_tree_into(state, topology, item, targeted, workspace, tree, &run);
    if (!workspace.heap.empty()) ++early_stops;
    for (const MachineId t : targets) {
      if (expected[t.index()].arrival <= latest) {
        EXPECT_EQ(tree.arrival(t), expected[t.index()].arrival) << "targeted";
        EXPECT_EQ(tree.has_parent(t), expected[t.index()].has_parent) << "targeted";
        if (tree.has_parent(t)) {
          EXPECT_EQ(tree.parent_edge(t), expected[t.index()].edge) << "targeted";
        }
      } else {
        EXPECT_GT(tree.arrival(t), latest) << "targeted";
      }
    }

    // Pruned early: settled labels within the horizon are final.
    SimTime first = SimTime::infinity();
    for (const Copy& copy : state.copies(item)) first = min(first, copy.available_at);
    DijkstraOptions pruned;
    pruned.prune_after = first + SimDuration::minutes(15);
    compute_route_tree_into(state, topology, item, pruned, workspace, tree);
    if (!workspace.heap.empty()) ++early_stops;
    for (std::size_t m = 0; m < expected.size(); ++m) {
      if (expected[m].arrival > pruned.prune_after) continue;
      const MachineId machine(static_cast<std::int32_t>(m));
      EXPECT_EQ(tree.arrival(machine), expected[m].arrival) << "pruned machine " << m;
      ASSERT_EQ(tree.has_parent(machine), expected[m].has_parent) << "pruned machine " << m;
      if (tree.has_parent(machine)) {
        EXPECT_EQ(tree.parent_edge(machine), expected[m].edge) << "pruned machine " << m;
      }
    }

    // Full runs on the reused workspace: infinite horizon, then a horizon
    // at the very top of the clock that must saturate, not overflow.
    compute_route_tree_into(state, topology, item, {}, workspace, tree, &stats);
    expect_matches_reference(tree, expected, "full");
    DijkstraOptions top;
    top.prune_after = SimTime::from_usec(std::numeric_limits<std::int64_t>::max());
    compute_route_tree_into(state, topology, item, top, workspace, tree);
    expect_matches_reference(tree, expected, "saturated");
    expect_matches_reference(compute_route_tree(state, topology, item), expected, "fresh");
  };

  // Check, commit one first hop per item, check again on the loaded state.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < scenario.item_count(); ++i) {
      const ItemId item(static_cast<std::int32_t>(i));
      check_item(item);
      const RouteTree full = compute_route_tree(state, topology, item);
      for (const Request& r : scenario.item(item).requests) {
        if (full.reached(r.destination) && full.has_parent(r.destination)) {
          const TreeEdge hop = full.first_hop(r.destination);
          state.apply_transfer(item, hop.link, hop.start);
          break;
        }
      }
    }
  }

  EXPECT_GT(early_stops, 0U);
  EXPECT_LE(stats.link_searches, stats.relaxations);
  EXPECT_LE(stats.storage_checks, stats.link_searches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedScanTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// Across the seeds above, the scenario family really exercises every path
// the grouped scan adds, and the unloaded forests use them.
TEST(GroupedScanCoverageTest, ScenarioFamilyExercisesEveryPath) {
  std::size_t long_groups = 0;
  std::size_t relabeled_roots = 0;
  std::size_t exact_fills = 0;
  std::size_t parallel_equal = 0;
  std::size_t parallel_interleaved = 0;
  std::size_t fragment_bandwidths = 0;
  std::size_t exact_windows = 0;
  std::size_t late_sources = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Scenario scenario = grouped_scan_scenario(seed * 104729);
    const Topology topology(scenario);
    for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
      for (const ReceiverGroup& group :
           topology.receivers(MachineId(static_cast<std::int32_t>(m)))) {
        const std::span<const OutEdge> edges = topology.edges(group);
        if (edges.size() >= 3) ++long_groups;
        for (std::size_t a = 0; a < edges.size(); ++a) {
          for (std::size_t b = a + 1; b < edges.size(); ++b) {
            const VirtualLink& x = scenario.vlink(edges[a].link);
            const VirtualLink& y = scenario.vlink(edges[b].link);
            if (x.phys == y.phys) {
              if (x.bandwidth_bps != y.bandwidth_bps) ++fragment_bandwidths;
            } else if (x.window.begin == y.window.begin) {
              ++parallel_equal;
            } else {
              ++parallel_interleaved;
            }
          }
        }
      }
    }
    for (const VirtualLink& vl : scenario.virt_links) {
      for (const DataItem& item : scenario.items) {
        if (vl.window.begin + occupancy_of(scenario, vl, item.size_bytes) ==
            vl.window.end) {
          ++exact_windows;
        }
      }
    }
    for (const DataItem& item : scenario.items) {
      for (const SourceLocation& src : item.sources) {
        if (src.available_at > scenario.virt_links.front().window.end) ++late_sources;
      }
    }
    const NetworkState state(scenario);
    for (std::size_t i = 0; i < scenario.item_count(); ++i) {
      const ItemId item(static_cast<std::int32_t>(i));
      const RouteTree tree = compute_route_tree(state, topology, item);
      for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
        const MachineId machine(static_cast<std::int32_t>(m));
        if (!tree.has_parent(machine)) continue;
        const TreeEdge edge = tree.parent_edge(machine);
        if (state.copy_available_at(item, machine).has_value()) ++relabeled_roots;
        if (edge.arrival == scenario.vlink(edge.link).window.end) ++exact_fills;
      }
    }
  }
  EXPECT_GT(long_groups, 0U);
  EXPECT_GT(relabeled_roots, 0U);
  EXPECT_GT(exact_fills, 0U);
  EXPECT_GT(parallel_equal, 0U);
  EXPECT_GT(parallel_interleaved, 0U);
  EXPECT_GT(fragment_bandwidths, 0U);
  EXPECT_GT(exact_windows, 0U);
  EXPECT_GT(late_sources, 0U);
}

// A transfer that fills the tail of its window to the last microsecond is
// feasible: the window-end bound rejects only arrivals strictly past the end.
TEST(GroupedScanEdgeCaseTest, TransferExactlyFillingWindowTailIsFound) {
  using testing::at_min;
  // 1 MB at 8 Mbit/s with 1 s latency: 2 s of occupancy.
  const Scenario s = testing::ScenarioBuilder()
                         .machine(std::int64_t{1} << 30)
                         .machine(std::int64_t{1} << 30)
                         .link(0, 1, 8'000'000,
                               Interval{at_min(0), at_min(10) + SimDuration::seconds(2)},
                               SimDuration::seconds(1))
                         .window(Interval{at_min(20), at_min(30)})
                         .window(Interval{at_min(40), at_min(50)})
                         .item(1'000'000)
                         .source(0, at_min(10))
                         .request(1, at_min(60))
                         .build();
  const Topology topology(s);
  const NetworkState state(s);
  const RouteTree tree = compute_route_tree(state, topology, ItemId(0));
  ASSERT_TRUE(tree.has_parent(MachineId(1)));
  EXPECT_EQ(tree.parent_edge(MachineId(1)).start, at_min(10));
  EXPECT_EQ(tree.arrival(MachineId(1)), at_min(10) + SimDuration::seconds(2));
}

// A late root is re-labeled through a relaxation from an earlier root: the
// one heap entry moves up in place and the label gains a parent edge.
TEST(GroupedScanEdgeCaseTest, RootRelabeledThroughRelaxation) {
  using testing::at_min;
  const Scenario s = testing::ScenarioBuilder()
                         .machine(std::int64_t{1} << 30)
                         .machine(std::int64_t{1} << 30)
                         .machine(std::int64_t{1} << 30)
                         .link(0, 1, 8'000'000, Interval{at_min(0), at_min(120)})
                         .link(1, 2, 8'000'000, Interval{at_min(0), at_min(120)})
                         .link(2, 0, 8'000'000, Interval{at_min(0), at_min(120)})
                         .item(1'000'000)
                         .source(0, at_min(0))
                         .source(1, at_min(60))
                         .request(2, at_min(90))
                         .build();
  const Topology topology(s);
  const NetworkState state(s);
  const RouteTree tree = compute_route_tree(state, topology, ItemId(0));
  ASSERT_TRUE(tree.has_parent(MachineId(1)));
  EXPECT_EQ(tree.parent_edge(MachineId(1)).from, MachineId(0));
  EXPECT_EQ(tree.arrival(MachineId(1)), at_min(0) + SimDuration::seconds(1));
  EXPECT_EQ(tree.arrival(MachineId(2)), at_min(0) + SimDuration::seconds(2));
}

}  // namespace
}  // namespace datastage
