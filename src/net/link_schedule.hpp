// Per-virtual-link reservation state.
//
// A virtual link is dedicated to one transfer at a time (paper §4.3: two data
// items cannot share a virtual link simultaneously). The schedule records the
// busy intervals of each virtual link and answers the routing layer's core
// query: earliest feasible start for a transfer of a given duration.
#pragma once

#include <optional>
#include <vector>

#include "model/scenario.hpp"
#include "util/chunked_intervals.hpp"
#include "util/ids.hpp"
#include "util/interval.hpp"

namespace datastage {

/// A successful link fit: a transfer may occupy [start, start + duration).
struct LinkFit {
  SimTime start;
  SimTime arrival;  ///< start + duration; when the item lands on the receiver
};

class LinkSchedule {
 public:
  /// The scenario must outlive the schedule.
  explicit LinkSchedule(const Scenario& scenario);

  /// Earliest fit of a transfer of `item_bytes` on `link`, starting at or
  /// after `ready_at`. The occupancy duration is transfer time + latency and
  /// must lie entirely inside the link window and outside existing
  /// reservations. nullopt if the window cannot accommodate it.
  std::optional<LinkFit> earliest_fit(VirtLinkId link, std::int64_t item_bytes,
                                      SimTime ready_at) const;

  /// The same search for a caller that already holds the link's window and
  /// the transfer's occupancy (the routing scan computes both per link).
  std::optional<LinkFit> earliest_fit(VirtLinkId link, const Interval& window,
                                      SimDuration occupancy, SimTime ready_at) const {
    const std::optional<SimTime> start =
        busy_[link.index()].earliest_fit(ready_at, occupancy, window);
    if (!start.has_value()) return std::nullopt;
    return LinkFit{*start, *start + occupancy};
  }

  /// Occupancy duration of `item_bytes` on `link` (transfer + latency).
  SimDuration occupancy(VirtLinkId link, std::int64_t item_bytes) const;

  /// Marks [start, start + occupancy) busy. The caller must have obtained
  /// `start` from earliest_fit (asserts on any overlap or window violation).
  void reserve(VirtLinkId link, std::int64_t item_bytes, SimTime start);

  /// True iff `iv` overlaps an existing reservation on `link`.
  bool busy_overlaps(VirtLinkId link, const Interval& iv) const {
    return busy_[link.index()].overlaps(iv);
  }

  const ChunkedIntervalSet& reservations(VirtLinkId link) const {
    return busy_[link.index()];
  }

  /// Total reserved time across all virtual links (observability/benches).
  /// O(1): maintained as a running sum by reserve() — reservations are never
  /// released, so the sum only grows.
  SimDuration total_reserved() const { return total_reserved_; }

 private:
  const Scenario* scenario_;
  // Chunked: a commit shifts one bounded chunk, not the whole reservation
  // tail of a busy link (O(reservations) per commit at the huge tier).
  std::vector<ChunkedIntervalSet> busy_;
  SimDuration total_reserved_ = SimDuration::zero();
};

}  // namespace datastage
