#include "routing/dijkstra.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {
namespace {

// Indexed binary min-heap over ws.heap / ws.heap_pos, keyed by the live
// arrival label. The machine id breaks ties so the expansion order (and
// therefore the tree under equal arrivals) is deterministic.
bool queued_before(const DijkstraWorkspace& ws, MachineId a, MachineId b) {
  const SimTime x = ws.arrival[a.index()];
  const SimTime y = ws.arrival[b.index()];
  return x < y || (x == y && a < b);
}

void place(DijkstraWorkspace& ws, std::uint32_t slot, MachineId machine) {
  ws.heap[slot] = machine;
  ws.heap_pos[machine.index()] = slot;
}

/// Queues `machine` under its current label, or moves it up after the label
/// dropped.
void push_or_decrease(DijkstraWorkspace& ws, MachineId machine) {
  std::uint32_t slot = ws.heap_pos[machine.index()];
  if (slot == DijkstraWorkspace::kNotQueued) {
    slot = static_cast<std::uint32_t>(ws.heap.size());
    ws.heap.push_back(machine);
  }
  while (slot > 0) {
    const std::uint32_t parent = (slot - 1) / 2;
    const MachineId above = ws.heap[parent];
    if (!queued_before(ws, machine, above)) break;
    place(ws, slot, above);
    slot = parent;
  }
  place(ws, slot, machine);
}

MachineId pop_min(DijkstraWorkspace& ws) {
  const MachineId top = ws.heap.front();
  ws.heap_pos[top.index()] = DijkstraWorkspace::kNotQueued;
  const MachineId last = ws.heap.back();
  ws.heap.pop_back();
  const auto size = static_cast<std::uint32_t>(ws.heap.size());
  if (size == 0) return top;
  std::uint32_t slot = 0;
  for (std::uint32_t child = 1; child < size; child = 2 * slot + 1) {
    if (child + 1 < size && queued_before(ws, ws.heap[child + 1], ws.heap[child])) {
      ++child;
    }
    if (!queued_before(ws, ws.heap[child], last)) break;
    place(ws, slot, ws.heap[child]);
    slot = child;
  }
  place(ws, slot, last);
  return top;
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
    heap_pos.resize(machine_count, kNotQueued);
  }
  for (const MachineId machine : heap) heap_pos[machine.index()] = kNotQueued;
  heap.clear();
  touched.clear();
}

bool compute_route_tree_into(const NetworkState& state, const Topology& topology,
                             ItemId item, const DijkstraOptions& options,
                             DijkstraWorkspace& workspace, RouteTree& tree,
                             DijkstraStats* stats) {
  const Scenario& scenario = state.scenario();
  const std::size_t n = scenario.machine_count();
  const std::int64_t item_bytes = scenario.item(item).size_bytes;
  // First time past the prune horizon, saturated so an infinite horizon
  // cannot overflow: arrivals and departures at or after it are pruned.
  const SimTime prune_limit = options.prune_after >= SimTime::infinity()
                                  ? SimTime::infinity()
                                  : options.prune_after + SimDuration::from_usec(1);
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
  bool storage_free = true;

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
    push_or_decrease(ws, copy.machine);
  }

  while (!ws.heap.empty()) {
    const MachineId u = pop_min(ws);
    const std::size_t ui = u.index();
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
    const SimTime sender_hold_end =
        options.ignore_hold_ends ? SimTime::infinity()
                                 : state.hold_end(item, u, options.hold_rules);
    const SimTime depart_limit = min(sender_hold_end, prune_limit);

    for (const ReceiverGroup& group : topology.receivers(u)) {
      const MachineId v = group.to;
      const std::size_t vi = v.index();
      bool labeled = ws.stamp[vi] == ws.epoch;
      if (labeled && ws.settled[vi] != 0) continue;
      SimTime current = labeled ? ws.arrival[vi] : SimTime::infinity();

      for (const OutEdge& out : topology.edges(group)) {
        if (stats != nullptr) ++stats->relaxations;
        // Cheap tests first. No fit departs before `earliest` or arrives
        // before `earliest + occupancy`, so a link these bounds reject would
        // fail the same checks after the search; only survivors pay for it.
        // `earliest` only grows along the group and `current` only shrinks,
        // so once the departure bound fails it fails for the rest.
        const SimTime earliest = max(ready, out.window.begin);
        if (earliest >= min(depart_limit, current)) break;
        const SimDuration occupancy =
            transfer_duration(item_bytes, out.bandwidth_bps) + out.latency;
        const SimTime earliest_arrival = earliest + occupancy;
        const SimTime arrival_limit = min(current, prune_limit);
        if (earliest_arrival >= arrival_limit) continue;
        if (earliest_arrival > out.window.end) continue;

        if (stats != nullptr) ++stats->link_searches;
        const std::optional<LinkFit> fit =
            state.links().earliest_fit(out.link, out.window, occupancy, ready);
        if (!fit.has_value()) continue;
        if (fit->start >= sender_hold_end) continue;
        if (fit->arrival >= arrival_limit) continue;
        if (stats != nullptr) ++stats->storage_checks;
        if (!state.can_hold(item, v, fit->start, options.hold_rules)) {
          storage_free = false;
          if (stats != nullptr) ++stats->capacity_rejections;
          continue;
        }

        if (!labeled) {
          labeled = true;
          ws.stamp[vi] = ws.epoch;
          ws.settled[vi] = 0;
          ws.touched.push_back(v);
        }
        current = fit->arrival;
        ws.arrival[vi] = current;
        ws.has_parent[vi] = 1;
        ws.edge[vi] = TreeEdge{u, v, out.link, fit->start, fit->arrival};
        push_or_decrease(ws, v);
      }
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
  if (stats != nullptr) stats->kept_entries += tree.labeled_count();
  return storage_free;
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
