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
#pragma once

#include <cstdint>
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
};

struct DijkstraStats {
  std::size_t pops = 0;
  std::size_t relaxations = 0;     ///< out-links examined in unsettled receivers' groups
  std::size_t link_searches = 0;   ///< links past the cheap bounds: searched
  std::size_t storage_checks = 0;  ///< link fits that improve a label: can_hold
  std::size_t capacity_rejections = 0;
  std::size_t kept_entries = 0;  ///< entries of the finished tree
};

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

/// Convenience wrapper allocating a fresh workspace and tree per call. The
/// scheduling engine uses compute_route_tree_into; one-shot callers (bounds,
/// baselines, tests) keep this simpler form.
RouteTree compute_route_tree(const NetworkState& state, const Topology& topology,
                             ItemId item, const DijkstraOptions& options = {},
                             DijkstraStats* stats = nullptr);

}  // namespace datastage
