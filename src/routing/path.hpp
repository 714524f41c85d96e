// Route trees: the output of the multiple-source shortest-path computation.
//
// A RouteTree is the earliest-arrival forest for one data item given the
// current network state: every reachable machine has an arrival time and (if
// it is not a copy holder already) the hop that attains it. Paths and first
// hops are recovered by walking parent pointers.
//
// Storage is sparse: one entry per *labeled* machine, sorted by machine id —
// and for a targeted search only the targets and their ancestors, the part
// the engine reads. Each entry is just the machine's parent edge (32 bytes).
// The engine holds one tree per live item plan — a dense per-machine layout
// cost O(items x machines) memory (tens of GB at the huge scale tier) and an
// O(machines) clear per refresh. The dense per-machine scratch lives in
// DijkstraWorkspace, shared by every item a worker refreshes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace datastage {

/// One hop of a route: transfer the item from `from` to `to` over `link`,
/// occupying the link during [start, arrival).
struct TreeEdge {
  MachineId from;
  MachineId to;
  VirtLinkId link;
  SimTime start;
  SimTime arrival;

  friend bool operator==(const TreeEdge&, const TreeEdge&) = default;
};

class RouteTree {
 public:
  explicit RouteTree(std::size_t machine_count);

  /// Re-initializes the tree for `machine_count` machines, reusing the
  /// existing entry buffer. Equivalent to assigning a fresh RouteTree but
  /// without reallocating — the engine recomputes trees in place every round.
  void reset(std::size_t machine_count);

  std::size_t machine_count() const { return machine_count_; }

  /// Number of machines the tree holds an entry for.
  std::size_t labeled_count() const { return entries_.size(); }

  /// Every entry, ascending by machine: the parent edge with `to` = the
  /// machine and `arrival` = its label, or a root entry with an invalid
  /// `from`. The engine logs these to replay the tree in a later run.
  std::span<const TreeEdge> entries() const { return entries_; }

  /// Earliest arrival of the item at `machine` (A_T when `machine` is a
  /// requesting destination). SimTime::infinity() if unreachable.
  SimTime arrival(MachineId machine) const {
    const TreeEdge* e = entry(machine);
    return e != nullptr ? e->arrival : SimTime::infinity();
  }

  bool reached(MachineId machine) const {
    const TreeEdge* e = entry(machine);
    return e != nullptr && !e->arrival.is_infinite();
  }

  /// True iff `machine` was reached via a transfer (false for copy holders,
  /// which are roots of the forest).
  bool has_parent(MachineId machine) const {
    const TreeEdge* e = entry(machine);
    return e != nullptr && e->from.valid();
  }

  const TreeEdge& parent_edge(MachineId machine) const;

  /// The entry of `machine` (its parent edge, or a root entry with an invalid
  /// `from`), nullptr if the tree holds none. Callers that ask several
  /// questions about one machine read its entry once through this.
  const TreeEdge* entry(MachineId machine) const;

  /// The first hop of the path from a copy holder to `dest`: the edge whose
  /// origin is a root. This is the paper's "next machine M[r] to receive the
  /// item" for destination `dest`. Requires reached(dest) && has_parent(dest).
  const TreeEdge& first_hop(MachineId dest) const;
  /// first_hop from the destination's entry (one lookup per hop above it).
  const TreeEdge& first_hop(const TreeEdge& dest_entry) const;

  /// Full path root -> dest, in transfer order. Empty if dest is a root.
  std::vector<TreeEdge> path_to(MachineId dest) const;

  /// path_to writing into a caller-reused buffer (cleared first) — the
  /// allocation-free form for per-round hot paths.
  void path_to_into(MachineId dest, std::vector<TreeEdge>& out) const;
  /// path_to_into from the destination's entry.
  void path_to_into(const TreeEdge& dest_entry, std::vector<TreeEdge>& out) const;

  /// Turns the entries of `new_roots` into roots at their current labels,
  /// then keeps only the labeled `targets` and their ancestors in the
  /// re-rooted forest, in ascending machine order. `new_roots` must have
  /// entries. This is the tree a targeted run would build once those machines
  /// hold copies available at their old labels and everything else is
  /// unchanged (the engine's repair after a commit of this tree's own edges;
  /// docs/PERFORMANCE.md item 8). `keep` is caller-reused scratch.
  void reroot_and_restrict(std::span<const MachineId> new_roots,
                           std::span<const MachineId> targets,
                           std::vector<std::uint8_t>& keep);

  /// Bulk-build interface for the Dijkstra driver: entries must be appended
  /// in strictly ascending machine order after a reset(). With a parent,
  /// `edge` must end at `machine` with `arrival`; without one it is ignored.
  void append(MachineId machine, SimTime arrival, bool has_parent,
              const TreeEdge& edge);

 private:
  /// Position of `machine`'s entry; entries_.size() when it has none.
  std::size_t index_of(MachineId machine) const;

  // One entry per labeled machine, sorted by machine id: the parent edge
  // with `to` = the machine and `arrival` = its label. A root's entry has an
  // invalid `from` and no link.
  std::vector<TreeEdge> entries_;
  std::size_t machine_count_ = 0;
};

}  // namespace datastage
