// Mutable resource state of the communication system during scheduling.
//
// NetworkState owns everything a scheduling decision consumes:
//   * link reservations (LinkSchedule),
//   * per-machine storage usage over time (StorageTimeline),
//   * the expanding set of copies of each item ("the sources of Rq[i] must
//     now include all machines that Rq[i] has been moved to/through", §4.8),
//   * the garbage-collection hold windows of those copies (§4.4).
//
// Resources move monotonically: reservations and allocations are only ever
// added (garbage collection is modeled as the *end* of a hold interval, known
// at allocation time). The routing cache in core/engine relies on this
// monotonicity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/scenario.hpp"
#include "net/link_schedule.hpp"
#include "net/storage_timeline.hpp"
#include "obs/metrics.hpp"
#include "util/ids.hpp"

namespace datastage {

/// A copy of an item residing on a machine, usable as a transfer source from
/// `available_at` on.
struct Copy {
  MachineId machine;
  SimTime available_at;
};

/// Record of the resources one applied transfer consumed; the scheduling
/// engine uses it to invalidate cached route trees.
struct AppliedTransfer {
  SimTime start;
  SimTime arrival;
  VirtLinkId link;
  Interval link_busy;                        ///< reserved interval on the link
  MachineId storage_machine;                 ///< receiver
  std::optional<Interval> storage_interval;  ///< newly charged hold window, if any
};

class NetworkState {
 public:
  /// Charges every initial source copy against storage. Asserts that initial
  /// copies fit (the generator guarantees this; hand-built scenarios must
  /// too). The scenario must outlive the state.
  explicit NetworkState(const Scenario& scenario);

  const Scenario& scenario() const { return *scenario_; }
  const LinkSchedule& links() const { return links_; }
  const StorageTimeline& storage(MachineId m) const { return storage_[m.index()]; }

  /// The least storage headroom (capacity - peak) over all machines, O(1):
  /// an item of at most this many bytes fits every hold window on every
  /// machine, now and — headroom only shrinks — at every earlier state.
  /// INT64_MAX for a scenario without machines.
  std::int64_t min_storage_headroom() const { return min_headroom_; }

  /// All current copies of `item` (initial sources plus staged copies).
  std::span<const Copy> copies(ItemId item) const { return copies_[item.index()]; }

  bool has_copy(ItemId item, MachineId machine) const {
    return hold_begin(item, machine).has_value();
  }

  /// When a copy at `machine` becomes usable; nullopt if no copy there.
  std::optional<SimTime> copy_available_at(ItemId item, MachineId machine) const;

  /// True iff `machine` requests `item` (is one of its destinations).
  bool is_destination(ItemId item, MachineId machine) const {
    const std::vector<MachineId>& dests = dests_[item.index()];
    return std::binary_search(dests.begin(), dests.end(), machine);
  }

  /// End of the storage hold window were `item` staged on `machine`:
  /// destinations and initial sources keep data for the rest of the
  /// simulation; intermediates release at gc_time (latest deadline + γ).
  SimTime hold_end(ItemId item, MachineId machine) const;

  /// Start of the existing hold window of `item` at `machine`, if any.
  std::optional<SimTime> hold_begin(ItemId item, MachineId machine) const;

  /// Could `machine` store `item` from `start` to its hold end, given
  /// current allocations? Accounts for an existing hold of the same item
  /// (only the extension [start, existing begin) needs new space).
  bool can_hold(ItemId item, MachineId machine, SimTime start) const;

  /// Earliest feasible start on `link` for `item` at or after `ready_at`,
  /// considering only the link (capacity is the caller's separate check).
  std::optional<LinkFit> earliest_fit(ItemId item, VirtLinkId link,
                                      SimTime ready_at) const {
    return links_.earliest_fit(link, scenario_->item(item).size_bytes, ready_at);
  }

  /// Full feasibility check of a transfer at an exact start time: sender
  /// holds a usable copy, the link window/reservations admit the occupancy,
  /// and the receiver can store the item. apply_transfer(item, link, start)
  /// succeeds iff this returns true.
  bool can_apply(ItemId item, VirtLinkId link, SimTime start) const;

  /// Commits a transfer of `item` over `link` starting at `start`:
  /// reserves the link, charges receiver storage (or extends an existing
  /// hold), and registers the new copy. Preconditions (asserted): the sender
  /// holds a usable copy by `start`; the link fits; storage fits.
  AppliedTransfer apply_transfer(ItemId item, VirtLinkId link, SimTime start);

  /// Number of transfers applied so far.
  std::size_t transfer_count() const { return transfer_count_; }

  /// Wires resource-accounting counters (`net.*`) into `registry`. Without
  /// this call the state counts nothing beyond transfer_count(). Handles are
  /// copied with the state (branch-and-bound clones share the registry).
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  /// Pre-resolved counter handles; engaged only after attach_metrics.
  struct NetCounters {
    obs::Counter transfers;
    obs::Counter link_reservations;    ///< busy-window subtractions on links
    obs::Counter storage_allocations;  ///< new hold windows charged
    obs::Counter hold_extensions;      ///< existing holds extended earlier
  };

  /// Hold window start of one copy. Holds exist only where copies do (a few
  /// machines per item), so per-item sorted vectors replace the former dense
  /// [item][machine] matrix — O(items x machines) memory was tens of GB at
  /// the huge scale tier.
  struct HoldRecord {
    MachineId machine;
    SimTime begin;
  };

  /// Charges `bytes` on `machine` over `iv` and keeps min_headroom_ current;
  /// the one place this state allocates storage.
  void allocate_storage(MachineId machine, std::int64_t bytes, const Interval& iv);

  SimTime* find_hold(ItemId item, MachineId machine);
  const SimTime* find_hold(ItemId item, MachineId machine) const;
  void record_hold(ItemId item, MachineId machine, SimTime begin);

  const Scenario* scenario_;
  LinkSchedule links_;
  std::vector<StorageTimeline> storage_;
  std::vector<std::vector<Copy>> copies_;  // [item] -> copies
  std::vector<std::vector<HoldRecord>> holds_;  // [item] -> sorted by machine
  std::vector<std::vector<MachineId>> dests_;   // [item] -> sorted machine ids
  std::size_t transfer_count_ = 0;
  std::int64_t min_headroom_ = INT64_MAX;  ///< min over storage_ of headroom()
  std::optional<NetCounters> counters_;
};

}  // namespace datastage
