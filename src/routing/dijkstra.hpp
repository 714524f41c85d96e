// Adaptation of Dijkstra's multiple-source shortest-path algorithm to the
// data-staging model (paper §4.2).
//
// For one data item, computes the earliest-arrival forest from all current
// copies of the item to every machine, subject to:
//   (1) receiver storage capacity through the garbage-collection hold window,
//   (2) virtual-link availability windows and existing reservations,
//   (3) copy availability times at the roots.
//
// Edge departures are FIFO (waiting never lets a transfer arrive earlier), so
// label-setting Dijkstra computes exact earliest arrivals when storage is not
// binding. Tight storage can break FIFO: a later departure shortens the
// receiver's hold window and may fit where an earlier one does not, so there
// the forest is the paper's greedy label-setting result, not the optimum over
// all paths.
//
// The relaxation rule, what one out-edge of a settled sender offers its
// receiver, has one home: test_out_edge below. The Dijkstra kernel relaxes
// with it, and verify_route_tree re-derives a logged forest's edges with it,
// so that an engine run can keep a previous run's tree instead of searching
// again (StagingEngine's replay; docs/PERFORMANCE.md item 11). A change to
// the rule (a tie-break, a goal-directed bound) is made in that function.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "routing/path.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace datastage {

struct DijkstraOptions {
  /// Labels strictly beyond this time are not expanded. Safe prune: any path
  /// that serves a request by its deadline only visits machines at or before
  /// that deadline. Callers pass the latest *pending* deadline of the item.
  SimTime prune_after = SimTime::infinity();
  /// Optional target set: the machines whose labels the caller will read.
  /// When non-empty, the search stops as soon as every target is settled —
  /// arrival times and parent edges of *settled* machines (which includes
  /// every ancestor on a path to a settled target) equal those of a full
  /// run — and the tree keeps only the labeled targets and their ancestors.
  /// Empty span (the default) computes the full forest. The span must stay
  /// alive for the duration of the call only.
  std::span<const MachineId> targets;
  /// Departures are limited by prune_after only, not by the sender's hold
  /// end: the quick admission check's relaxation (serve/admission.hpp).
  bool ignore_hold_ends = false;
  /// The item's hold rules in a run without one of its requests
  /// (NetworkState::hold_end); null: the state's own.
  const HoldRules* hold_rules = nullptr;
};

struct DijkstraStats {
  std::size_t pops = 0;
  std::size_t relaxations = 0;     ///< out-links examined in unsettled receivers' groups
  std::size_t link_searches = 0;   ///< links past the cheap bounds: searched
  std::size_t storage_checks = 0;  ///< link fits that improve a label: can_hold
  std::size_t capacity_rejections = 0;
  std::size_t kept_entries = 0;  ///< entries of the finished tree
};

/// What one out-edge offers its receiver under test_out_edge.
enum class EdgeTest : std::uint8_t {
  kStop,    ///< nothing, nor does any later edge of the receiver group
  kSkip,    ///< nothing
  kNoRoom,  ///< a transfer, but the receiver's storage cannot hold the copy
  kFits,    ///< a transfer the receiver can hold
};

/// The bounds of a relaxation: the run's, and the settled sender's (set by
/// begin_sender).
struct EdgeScan {
  const NetworkState* state;
  ItemId item;
  std::int64_t item_bytes;
  const HoldRules* hold_rules;
  /// Arrivals and departures at or after it are pruned.
  SimTime prune_limit;
  SimTime ready;     ///< the sender's label: no departure before it
  SimTime hold_end;  ///< departures at or after it find no copy to send
  SimTime depart_limit;  ///< min(hold_end, prune_limit)

  /// `prune_after`: labels strictly beyond it are not expanded.
  EdgeScan(const NetworkState& network, ItemId scanned, const HoldRules* rules,
           SimTime prune_after)
      : state(&network),
        item(scanned),
        item_bytes(network.scenario().item(scanned).size_bytes),
        hold_rules(rules),
        // Saturated, so an infinite horizon cannot overflow.
        prune_limit(prune_after >= SimTime::infinity()
                         ? SimTime::infinity()
                         : prune_after + SimDuration::from_usec(1)) {}

  void begin_sender(SimTime sender_ready, SimTime sender_hold_end) {
    ready = sender_ready;
    hold_end = sender_hold_end;
    depart_limit = min(sender_hold_end, prune_limit);
  }
};

/// The relaxation test of out-edge `out` towards receiver `to` (paper §4.2):
/// arrivals at or after `below` (the receiver's label) offer nothing. Cheap
/// bounds first: no fit departs before `earliest` or arrives before
/// `earliest + occupancy`, so an edge they reject would fail the same checks
/// after the link search. `earliest` only grows along a receiver group and
/// `below` does not, so once the departure bound fails (kStop) it fails for
/// the rest of the group. The earliest fit on the link must depart before
/// the sender's hold end and arrive before the prune limit and `below`; it
/// goes to `fit`, and the receiver's storage decides kNoRoom or kFits.
/// Counts into `stats` when non-null.
inline EdgeTest test_out_edge(const EdgeScan& scan, const OutEdge& out, MachineId to,
                              SimTime below, LinkFit& fit, DijkstraStats* stats) {
  if (stats != nullptr) ++stats->relaxations;
  const SimTime earliest = max(scan.ready, out.window.begin);
  if (earliest >= min(scan.depart_limit, below)) return EdgeTest::kStop;
  const SimDuration occupancy =
      transfer_duration(scan.item_bytes, out.bandwidth_bps) + out.latency;
  const SimTime earliest_arrival = earliest + occupancy;
  const SimTime arrival_limit = min(below, scan.prune_limit);
  if (earliest_arrival >= arrival_limit) return EdgeTest::kSkip;
  if (earliest_arrival > out.window.end) return EdgeTest::kSkip;

  if (stats != nullptr) ++stats->link_searches;
  const std::optional<LinkFit> found =
      scan.state->links().earliest_fit(out.link, out.window, occupancy, scan.ready);
  if (!found.has_value()) return EdgeTest::kSkip;
  if (found->start >= scan.hold_end) return EdgeTest::kSkip;
  if (found->arrival >= arrival_limit) return EdgeTest::kSkip;
  fit = *found;
  if (stats != nullptr) ++stats->storage_checks;
  if (!scan.state->can_hold(scan.item, to, found->start, scan.hold_rules)) {
    if (stats != nullptr) ++stats->capacity_rejections;
    return EdgeTest::kNoRoom;
  }
  return EdgeTest::kFits;
}

/// Caller-owned scratch buffers reused across runs: an indexed heap plus the
/// dense per-machine label arrays the search relaxes against. The labels are
/// epoch-stamped — a slot is valid only when its stamp equals the current
/// epoch, so starting a run invalidates everything in O(1) instead of an
/// O(machines) clear per item refresh. After the search the labeled slots
/// are compacted into the caller's sparse RouteTree. Reusing a workspace
/// removes every per-run allocation from the routing hot path; a
/// default-constructed workspace is grown on first use. Not thread-safe —
/// one workspace per thread.
struct DijkstraWorkspace {
  /// heap_pos value of a machine that is not queued.
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  /// Binary min-heap of the labeled, unsettled machines by (arrival label,
  /// machine id): one entry per machine, moved up in place when its label
  /// drops (decrease-key), so no stale entries are ever popped.
  std::vector<MachineId> heap;
  std::vector<std::uint32_t> heap_pos;  ///< [machine] -> heap slot or kNotQueued

  std::uint64_t epoch = 0;           ///< current run id; stamps below match it
  std::vector<std::uint64_t> stamp;  ///< label validity (== epoch)
  std::vector<SimTime> arrival;      ///< tentative arrival labels
  std::vector<std::uint8_t> settled;
  std::vector<std::uint8_t> has_parent;
  std::vector<TreeEdge> edge;            ///< parent edges (valid iff has_parent)
  std::uint64_t target_epoch = 0;        ///< separate epoch for the target set
  std::vector<std::uint64_t> target_stamp;
  std::vector<MachineId> touched;  ///< machines labeled this run (unsorted);
                                   ///< a targeted run refills it with the kept ones

  /// Bumps the epoch, grows the arrays to `machine_count`, empties the heap
  /// (un-queueing what an early-stopped run left in it) and the touched list.
  void begin_run(std::size_t machine_count);
};

/// Runs the adapted Dijkstra for `item` over the current `state`, writing the
/// forest into `tree` (reset in place — prior contents are discarded, buffers
/// reused). `topology` must be built from `state.scenario()`. Returns true iff
/// storage rejected no relaxation in this run: the tree is then the plain
/// FIFO earliest-arrival forest, which StagingEngine's tree repair and
/// replay require.
bool compute_route_tree_into(const NetworkState& state, const Topology& topology,
                             ItemId item, const DijkstraOptions& options,
                             DijkstraWorkspace& workspace, RouteTree& tree,
                             DijkstraStats* stats = nullptr);

/// One entry of a route tree as a log keeps it from one world to the next:
/// the virtual link by its physical link, since virtual-link ids are
/// renumbered when link availability changes. A root entry has an invalid
/// `from` and `phys`.
struct LoggedEdge {
  MachineId from;
  MachineId to;
  PhysLinkId phys;
  SimTime start;
  SimTime arrival;
};

/// Appends `tree`'s entries (ascending by machine) to `out` as LoggedEdges;
/// `scenario` is the one the tree was computed on.
void log_route_tree(const Scenario& scenario, const RouteTree& tree,
                    std::vector<LoggedEdge>& out);

/// verify_route_tree's verdict.
enum class ForestCheck : std::uint8_t {
  kVerified,
  kMismatch,    ///< an entry no longer re-derives
  kHoldMisfit,  ///< an edge re-derives, but its receiver cannot hold the copy
};

/// Rebuilds `tree` from `forest`, a logged targeted tree of `item` (entries
/// ascending by machine, each kept entry's parent kept), when every entry
/// re-derives on `state` with the hold rules of the state's scenario: a root
/// from the receiver's copy, available at its logged arrival; an edge from
/// its parent's entry, by test_out_edge under the prune horizon
/// `prune_after` (the parent's arrival must not lie past it), as the only
/// out-edge of its sender->receiver group that offers a transfer arriving by
/// the logged arrival, with the logged start, arrival and physical link, and
/// one the receiver can hold. Dijkstra keeps the first of tied edges; the
/// verifier refuses ties. Counts nothing. On a verdict other than kVerified
/// the tree holds a prefix of the forest.
///
/// When `forest` is the storage-free tree (compute_route_tree_into returned
/// true) of a world whose availability contained this one, a verified tree
/// is the one a targeted run on `state` builds (docs/PERFORMANCE.md item 11).
ForestCheck verify_route_tree(const NetworkState& state, const Topology& topology, ItemId item,
                              std::span<const LoggedEdge> forest, SimTime prune_after,
                              RouteTree& tree);

/// Convenience wrapper allocating a fresh workspace and tree per call. The
/// scheduling engine uses compute_route_tree_into; one-shot callers (bounds,
/// baselines, tests) keep this simpler form.
RouteTree compute_route_tree(const NetworkState& state, const Topology& topology,
                             ItemId item, const DijkstraOptions& options = {},
                             DijkstraStats* stats = nullptr);

}  // namespace datastage
