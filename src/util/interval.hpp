// Half-open time intervals and sorted disjoint interval sets.
//
// IntervalSet is the workhorse behind link reservations: each virtual link
// keeps the set of busy intervals, and routing asks "what is the earliest
// start >= t at which a transfer of length d fits inside the link window and
// outside every busy interval?".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace datastage {

/// Half-open interval [begin, end). An interval with begin == end is empty.
struct Interval {
  SimTime begin;
  SimTime end;

  constexpr bool empty() const { return begin >= end; }
  constexpr SimDuration length() const { return end - begin; }

  constexpr bool contains(SimTime t) const { return begin <= t && t < end; }
  constexpr bool contains(const Interval& other) const {
    return begin <= other.begin && other.end <= end;
  }
  constexpr bool overlaps(const Interval& other) const {
    return begin < other.end && other.begin < end;
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;

  std::string to_string() const;
};

/// A set of pairwise-disjoint, sorted, non-empty intervals.
class IntervalSet {
 public:
  IntervalSet() = default;

  bool empty() const { return intervals_.empty(); }
  std::size_t size() const { return intervals_.size(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Removes every member, keeping the buffer.
  void clear() { intervals_.clear(); }

  /// True iff `iv` overlaps any member interval.
  bool overlaps(const Interval& iv) const;

  /// Inserts a non-empty interval that must not overlap any existing member
  /// (reservations are exclusive by construction). Adjacent intervals are
  /// kept separate; only overlap is forbidden.
  void insert_disjoint(const Interval& iv);

  /// Inserts an interval, merging with any overlapping/adjacent members.
  /// Used by accounting code where double-covering is legal.
  void insert_merge(const Interval& iv);

  /// Removes `iv` from the covered set, trimming and splitting members as
  /// needed. Used by the dynamic extension to consume link availability.
  void subtract(const Interval& iv);

  /// Earliest start >= `not_before` such that [start, start + length) lies
  /// inside `window` and overlaps no member interval. nullopt if none exists.
  std::optional<SimTime> earliest_fit(SimTime not_before, SimDuration length,
                                      const Interval& window) const;

  /// Total covered duration within `window`.
  SimDuration covered_within(const Interval& window) const;

 private:
  // Index of the first interval with end > t (candidate container of t).
  std::size_t first_ending_after(SimTime t) const;

  std::vector<Interval> intervals_;
};

}  // namespace datastage
