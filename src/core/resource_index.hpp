// Inverted resource index: resource -> subscribed plans.
//
// The scheduling engine caches one route plan per data item; a committed
// transfer must dirty exactly the cached plans whose satisfiable paths rely
// on a resource the transfer consumed. The naive check — every plan against
// every resource of every commit — is O(items x resources) per iteration and
// dominates large runs. This index inverts the relationship: each virtual
// link and each machine's storage keeps a posting list of (plan, interval)
// subscriptions, so a commit dispatches only to the plans actually subscribed
// to the touched resources, with interval overlap filtering at dispatch time.
//
// Unsubscription is O(1) via per-plan epochs (entries of an old epoch are
// dead); dead entries are reclaimed by a global sweep once they outnumber the
// live ones, keeping memory and dispatch cost proportional to live
// subscriptions. Determinism: posting lists are ordered by subscription
// history and the sweep is triggered by deterministic state only, so dispatch
// visits plans in a reproducible order (callers that need a canonical order
// sort the dispatched plan set — it is small by construction).
//
// Only ordered/flat containers are used (lint rule DS003): posting lists are
// plain vectors indexed by the dense VirtLinkId/MachineId spaces.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.hpp"
#include "util/interval.hpp"

namespace datastage {

class ResourceIndex {
 public:
  ResourceIndex(std::size_t link_count, std::size_t machine_count,
                std::size_t plan_count);

  /// Empties the index for new resource and plan counts, reusing the posting
  /// buffers: afterwards it behaves exactly as a freshly constructed one.
  void reset(std::size_t link_count, std::size_t machine_count, std::size_t plan_count);

  /// Registers that `plan`'s cached paths occupy `link` during `iv`.
  void subscribe_link(std::size_t plan, VirtLinkId link, const Interval& iv);
  /// Registers that `plan`'s cached paths need `machine` storage during `iv`.
  void subscribe_storage(std::size_t plan, MachineId machine, const Interval& iv);

  /// Drops every subscription of `plan`. O(1): entries die by epoch and are
  /// reclaimed lazily.
  void unsubscribe_all(std::size_t plan);

  /// Calls `fn(plan, interval)` for every live link subscription on `link`
  /// overlapping `iv`, except those of plan `skip`. Returns the number of
  /// live entries examined (the dispatch work metric).
  template <class Fn>
  std::size_t dispatch_link(VirtLinkId link, const Interval& iv, std::size_t skip,
                            Fn&& fn) const {
    return dispatch(by_link_[link.index()], iv, skip, fn);
  }

  /// Same for storage subscriptions on `machine`.
  template <class Fn>
  std::size_t dispatch_storage(MachineId machine, const Interval& iv,
                               std::size_t skip, Fn&& fn) const {
    return dispatch(by_storage_[machine.index()], iv, skip, fn);
  }

  /// Live subscriptions across all resources — what one full scan of every
  /// plan's resource list would have to walk (the counterfactual cost the
  /// index avoids; exported as `engine.invalidations_scan_equiv`).
  std::size_t live_entries() const { return live_entries_; }

  /// Live subscriptions of one plan (tests).
  std::size_t plan_entries(std::size_t plan) const { return plan_live_[plan]; }

 private:
  struct Entry {
    std::uint32_t plan;
    std::uint64_t epoch;  ///< live iff == plan_epoch_[plan]
    Interval iv;
  };

  bool live(const Entry& e) const { return e.epoch == plan_epoch_[e.plan]; }

  template <class Fn>
  std::size_t dispatch(const std::vector<Entry>& entries, const Interval& iv,
                       std::size_t skip, Fn&& fn) const {
    std::size_t examined = 0;
    for (const Entry& e : entries) {
      if (!live(e)) continue;
      ++examined;
      if (e.plan == skip) continue;
      if (e.iv.overlaps(iv)) fn(static_cast<std::size_t>(e.plan), e.iv);
    }
    return examined;
  }

  void append(std::vector<Entry>& entries, std::size_t plan, const Interval& iv);
  /// Erases every dead entry from every posting list.
  void sweep();

  std::vector<std::vector<Entry>> by_link_;
  std::vector<std::vector<Entry>> by_storage_;
  std::vector<std::uint64_t> plan_epoch_;
  std::vector<std::size_t> plan_live_;
  std::size_t live_entries_ = 0;
  std::size_t dead_entries_ = 0;
};

}  // namespace datastage
