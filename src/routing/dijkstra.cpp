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
  const std::size_t n = state.scenario().machine_count();
  EdgeScan scan(state, item, options.hold_rules, options.prune_after);
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
    scan.begin_sender(ready, options.ignore_hold_ends
                                 ? SimTime::infinity()
                                 : state.hold_end(item, u, options.hold_rules));

    for (const ReceiverGroup& group : topology.receivers(u)) {
      const MachineId v = group.to;
      const std::size_t vi = v.index();
      bool labeled = ws.stamp[vi] == ws.epoch;
      if (labeled && ws.settled[vi] != 0) continue;
      SimTime current = labeled ? ws.arrival[vi] : SimTime::infinity();

      for (const OutEdge& out : topology.edges(group)) {
        LinkFit fit;
        const EdgeTest test = test_out_edge(scan, out, v, current, fit, stats);
        if (test == EdgeTest::kStop) break;
        if (test == EdgeTest::kNoRoom) storage_free = false;
        if (test != EdgeTest::kFits) continue;

        if (!labeled) {
          labeled = true;
          ws.stamp[vi] = ws.epoch;
          ws.settled[vi] = 0;
          ws.touched.push_back(v);
        }
        current = fit.arrival;
        ws.arrival[vi] = current;
        ws.has_parent[vi] = 1;
        ws.edge[vi] = TreeEdge{u, v, out.link, fit.start, fit.arrival};
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

void log_route_tree(const Scenario& scenario, const RouteTree& tree,
                    std::vector<LoggedEdge>& out) {
  for (const TreeEdge& e : tree.entries()) {
    out.push_back(LoggedEdge{e.from, e.to,
                             e.from.valid() ? scenario.vlink(e.link).phys : PhysLinkId::invalid(),
                             e.start, e.arrival});
  }
}

ForestCheck verify_route_tree(const NetworkState& state, const Topology& topology, ItemId item,
                              std::span<const LoggedEdge> forest, SimTime prune_after,
                              RouteTree& tree) {
  const Scenario& scenario = state.scenario();
  EdgeScan scan(state, item, nullptr, prune_after);
  tree.reset(scenario.machine_count());
  for (const LoggedEdge& entry : forest) {
    if (!entry.from.valid()) {
      const std::optional<SimTime> copy = state.copy_available_at(item, entry.to);
      if (!copy.has_value() || *copy != entry.arrival) return ForestCheck::kMismatch;
      tree.append(entry.to, entry.arrival, false, TreeEdge{});
      continue;
    }
    // Entries are sorted by machine, and a kept entry's parent is kept.
    const auto parent = std::lower_bound(
        forest.begin(), forest.end(), entry.from,
        [](const LoggedEdge& e, MachineId machine) { return e.to < machine; });
    if (parent == forest.end() || parent->to != entry.from) return ForestCheck::kMismatch;
    const SimTime ready = parent->arrival;
    if (ready > prune_after) return ForestCheck::kMismatch;
    const std::span<const ReceiverGroup> groups = topology.receivers(entry.from);
    const auto group = std::lower_bound(
        groups.begin(), groups.end(), entry.to,
        [](const ReceiverGroup& g, MachineId machine) { return g.to < machine; });
    if (group == groups.end() || group->to != entry.to) return ForestCheck::kMismatch;
    scan.begin_sender(ready, state.hold_end(item, entry.from));
    // The edges a Dijkstra scan would take, arriving by the logged arrival:
    // exactly one, the logged edge on its (possibly renumbered) link.
    const SimTime below = entry.arrival + SimDuration::from_usec(1);
    VirtLinkId found = VirtLinkId::invalid();
    bool fits = false;
    for (const OutEdge& out : topology.edges(*group)) {
      LinkFit fit;
      const EdgeTest test = test_out_edge(scan, out, entry.to, below, fit, nullptr);
      if (test == EdgeTest::kStop) break;
      if (test == EdgeTest::kSkip) continue;
      if (found.valid() || fit.start != entry.start || fit.arrival != entry.arrival ||
          scenario.vlink(out.link).phys != entry.phys) {
        return ForestCheck::kMismatch;
      }
      found = out.link;
      fits = test == EdgeTest::kFits;
    }
    if (!found.valid()) return ForestCheck::kMismatch;
    if (!fits) return ForestCheck::kHoldMisfit;
    tree.append(entry.to, entry.arrival, true,
                TreeEdge{entry.from, entry.to, found, entry.start, entry.arrival});
  }
  return ForestCheck::kVerified;
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
