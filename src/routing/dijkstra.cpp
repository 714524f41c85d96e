#include "routing/dijkstra.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {
namespace {

// Min-heap by arrival; machine id breaks ties so the expansion order (and
// therefore the tree under equal arrivals) is deterministic.
bool heap_after(const DijkstraWorkspace::HeapEntry& a,
                const DijkstraWorkspace::HeapEntry& b) {
  if (a.arrival != b.arrival) return a.arrival > b.arrival;
  return a.machine > b.machine;
}

}  // namespace

void DijkstraWorkspace::begin_run(std::size_t machine_count) {
  ++epoch;
  if (stamp.size() < machine_count) {
    stamp.resize(machine_count, 0);
    arrival.resize(machine_count);
    settled.resize(machine_count, 0);
    has_parent.resize(machine_count, 0);
    edge.resize(machine_count);
    target_stamp.resize(machine_count, 0);
  }
  heap.clear();
  touched.clear();
}

void compute_route_tree_into(const NetworkState& state, const Topology& topology,
                             ItemId item, const DijkstraOptions& options,
                             DijkstraWorkspace& workspace, RouteTree& tree,
                             DijkstraStats* stats) {
  const Scenario& scenario = state.scenario();
  const std::size_t n = scenario.machine_count();
  const std::int64_t item_bytes = scenario.item(item).size_bytes;
  DijkstraWorkspace& ws = workspace;
  ws.begin_run(n);

  // Mark the target set; `targets_left` counts distinct unsettled targets so
  // the main loop can stop the moment the caller has everything it asked for.
  std::size_t targets_left = 0;
  if (!options.targets.empty()) {
    ++ws.target_epoch;
    for (const MachineId t : options.targets) {
      if (ws.target_stamp[t.index()] != ws.target_epoch) {
        ws.target_stamp[t.index()] = ws.target_epoch;
        ++targets_left;
      }
    }
  }
  const bool track_targets = targets_left > 0;

  for (const Copy& copy : state.copies(item)) {
    // Root label: min with any existing label (a machine holds one copy, but
    // the semantics tolerate re-rooting), never via a parent edge.
    const std::size_t i = copy.machine.index();
    if (ws.stamp[i] == ws.epoch) {
      ws.arrival[i] = min(ws.arrival[i], copy.available_at);
      ws.has_parent[i] = 0;
    } else {
      ws.stamp[i] = ws.epoch;
      ws.arrival[i] = copy.available_at;
      ws.has_parent[i] = 0;
      ws.settled[i] = 0;
      ws.touched.push_back(copy.machine);
    }
    ws.heap.push_back({ws.arrival[i], copy.machine});
    std::push_heap(ws.heap.begin(), ws.heap.end(), heap_after);
  }

  while (!ws.heap.empty()) {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), heap_after);
    const DijkstraWorkspace::HeapEntry entry = ws.heap.back();
    ws.heap.pop_back();
    const MachineId u = entry.machine;
    const std::size_t ui = u.index();
    if (ws.settled[ui] != 0) continue;        // lazily deleted duplicate
    if (entry.arrival != ws.arrival[ui]) continue;  // stale entry
    ws.settled[ui] = 1;
    if (stats != nullptr) ++stats->pops;

    const SimTime ready = ws.arrival[ui];
    // Every remaining label is >= ready (min-heap), so nothing past the prune
    // horizon would ever be expanded: all settled labels are already final
    // and the rest of the queue can be dropped wholesale.
    if (ready > options.prune_after) break;

    // Settling the last target finalizes every label the caller will read
    // (ancestors of a settled machine are settled); stop before expanding.
    if (track_targets && ws.target_stamp[ui] == ws.target_epoch &&
        --targets_left == 0) {
      break;
    }

    // The item must still reside on u when a transfer departs; transfers
    // departing after u's hold window has been garbage-collected are invalid.
    const SimTime sender_hold_end = state.hold_end(item, u);

    for (const VirtLinkId link_id : topology.outgoing(u)) {
      if (stats != nullptr) ++stats->relaxations;
      const VirtualLink& vl = scenario.vlink(link_id);
      const MachineId v = vl.to;
      const std::size_t vi = v.index();
      const bool labeled = ws.stamp[vi] == ws.epoch;
      if (labeled && ws.settled[vi] != 0) continue;
      const SimTime current = labeled ? ws.arrival[vi] : SimTime::infinity();

      // Cheap tests first. No fit departs before `earliest` or arrives before
      // `earliest + occupancy`, so a link these bounds reject would fail the
      // same checks after the search; only survivors pay for it.
      const SimTime earliest = max(ready, vl.window.begin);
      if (earliest >= sender_hold_end || earliest >= current ||
          earliest > options.prune_after) {
        continue;
      }
      const SimTime earliest_arrival =
          earliest + state.links().occupancy(link_id, item_bytes);
      if (earliest_arrival >= current || earliest_arrival > options.prune_after) {
        continue;
      }

      if (stats != nullptr) ++stats->link_searches;
      const std::optional<LinkFit> fit = state.earliest_fit(item, link_id, ready);
      if (!fit.has_value()) continue;
      if (fit->start >= sender_hold_end) continue;
      if (fit->arrival >= current) continue;
      if (fit->arrival > options.prune_after) continue;
      if (stats != nullptr) ++stats->storage_checks;
      if (!state.can_hold(item, v, fit->start)) {
        if (stats != nullptr) ++stats->capacity_rejections;
        continue;
      }

      if (!labeled) {
        ws.stamp[vi] = ws.epoch;
        ws.settled[vi] = 0;
        ws.touched.push_back(v);
      }
      ws.arrival[vi] = fit->arrival;
      ws.has_parent[vi] = 1;
      ws.edge[vi] = TreeEdge{u, v, link_id, fit->start, fit->arrival};
      ws.heap.push_back({fit->arrival, v});
      std::push_heap(ws.heap.begin(), ws.heap.end(), heap_after);
    }
  }

  // Compact into the sparse tree, ascending by machine id. A full run keeps
  // every labeled slot, tentative ones included. A targeted run keeps only
  // what its caller reads: the labeled targets and their ancestors, which are
  // settled (parent edges leave settled machines). Root entries never read
  // the (stale) scratch edge.
  tree.reset(n);
  if (!options.targets.empty()) {
    ws.touched.clear();
    ++ws.target_epoch;  // re-used as the "kept" mark
    for (const MachineId t : options.targets) {
      for (std::size_t i = t.index();
           ws.stamp[i] == ws.epoch && ws.target_stamp[i] != ws.target_epoch;) {
        ws.target_stamp[i] = ws.target_epoch;
        ws.touched.push_back(MachineId(static_cast<std::int32_t>(i)));
        if (ws.has_parent[i] == 0) break;
        i = ws.edge[i].from.index();
      }
    }
  }
  std::sort(ws.touched.begin(), ws.touched.end());
  for (const MachineId machine : ws.touched) {
    const std::size_t i = machine.index();
    tree.append(machine, ws.arrival[i], ws.has_parent[i] != 0, ws.edge[i]);
  }
}

RouteTree compute_route_tree(const NetworkState& state, const Topology& topology,
                             ItemId item, const DijkstraOptions& options,
                             DijkstraStats* stats) {
  DijkstraWorkspace workspace;
  RouteTree tree(0);
  compute_route_tree_into(state, topology, item, options, workspace, tree, stats);
  return tree;
}

}  // namespace datastage
