// Mutable resource state of the communication system during scheduling.
//
// NetworkState owns everything a scheduling decision consumes:
//   * link reservations (LinkSchedule),
//   * per-machine storage usage over time (StorageTimeline),
//   * the expanding set of copies of each item ("the sources of Rq[i] must
//     now include all machines that Rq[i] has been moved to/through", §4.8),
//     each with the start of its garbage-collection hold window (§4.4).
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

/// A copy in NetworkState: the machine also stores the item from
/// `hold_begin` on (a staged copy's hold starts when its transfer departs).
struct HeldCopy : Copy {
  SimTime hold_begin;
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

  /// The same state, adopting `storage` instead of sweeping the charges:
  /// per machine, the timeline that every source's hold window charges
  /// (what the constructor above builds). The timelines are canonical, so
  /// the result is identical (DynamicStager's residual build sweeps them
  /// already).
  NetworkState(const Scenario& scenario, std::span<const StorageTimeline> storage);

  /// Rebinds to `scenario` as the adopting constructor does, reusing every
  /// buffer: copies, link reservations and timelines.
  void reset(const Scenario& scenario, std::span<const StorageTimeline> storage);

  const Scenario& scenario() const { return *scenario_; }
  const LinkSchedule& links() const { return links_; }
  const StorageTimeline& storage(MachineId m) const { return storage_[m.index()]; }

  /// All current copies of `item` (initial sources plus staged copies),
  /// ascending by machine.
  std::span<const HeldCopy> copies(ItemId item) const { return copies_[item.index()]; }

  bool has_copy(ItemId item, MachineId machine) const {
    return find_copy(item, machine) != nullptr;
  }

  /// When a copy at `machine` becomes usable; nullopt if no copy there.
  std::optional<SimTime> copy_available_at(ItemId item, MachineId machine) const;

  /// True iff `machine` requests `item` (is one of its destinations).
  bool is_destination(ItemId item, MachineId machine) const {
    const std::vector<MachineId>& dests = dests_[item.index()];
    return std::binary_search(dests.begin(), dests.end(), machine);
  }

  /// End of the storage hold window were `item` staged on `machine`
  /// (copy_hold_end): destinations keep data for the rest of the simulation,
  /// initial sources until their hold_until, intermediates until the item's
  /// gc time, computed once when the scenario is bound.
  SimTime hold_end(ItemId item, MachineId machine) const {
    return copy_hold_end(*scenario_, item, machine, is_destination(item, machine),
                         gc_time_[item.index()]);
  }

  /// Start of the existing hold window of `item` at `machine`, if any.
  std::optional<SimTime> hold_begin(ItemId item, MachineId machine) const;

  /// The storage a transfer of `item` to `machine` departing at `start`
  /// newly charges: the whole hold window [start, hold_end) for a new copy,
  /// the extension [start, begin) of a hold that begins later, and nothing
  /// for one that begins at or before `start`.
  std::optional<Interval> hold_charge(ItemId item, MachineId machine, SimTime start) const;

  /// Could `machine` store `item` from `start` to its hold end, given
  /// current allocations? Checks the hold_charge interval.
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

  /// Fills copies_, dests_ and gc_time_ from the scenario's sources and
  /// requests (clearing what a previous scenario left); appends each source's
  /// storage charge to `charges` when it is non-null.
  void bind_items(std::vector<StorageCharge>* charges);
  /// The copy of `item` at `machine`, or nullptr.
  const HeldCopy* find_copy(ItemId item, MachineId machine) const;

  const Scenario* scenario_;
  LinkSchedule links_;
  std::vector<StorageTimeline> storage_;
  /// [item] -> copies sorted by machine. Copies exist on a few machines per
  /// item; a dense [item][machine] matrix would take tens of GB at the huge
  /// scale tier.
  std::vector<std::vector<HeldCopy>> copies_;
  std::vector<std::vector<MachineId>> dests_;  // [item] -> sorted machine ids
  std::vector<SimTime> gc_time_;               // [item] -> Scenario::gc_time
  std::size_t transfer_count_ = 0;
  std::optional<NetCounters> counters_;
};

}  // namespace datastage
