// Per-machine storage usage over time.
//
// Cap[i](t) in the paper is piecewise constant: it changes when a copy of an
// item is placed on a machine and when garbage collection reclaims it. We
// track *usage* as a piecewise-constant step function keyed by breakpoints;
// free capacity over a window is capacity minus the maximum usage inside it.
//
// Layout: one sorted breakpoint vector plus the maximum usage of each fixed
// block of kBlock consecutive breakpoints. max_usage() binary-searches both
// window ends, scans the partial head and tail blocks and reads the whole
// blocks in between from the maxima: O(log B + B / kBlock + 2 * kBlock) for
// B breakpoints. allocate() edits the breakpoints in place and recomputes the
// maxima from the first block it touched, O(B); it is far rarer than queries.
//
// Headroom: the timeline also keeps its peak, the maximum usage at any
// instant, refreshed by allocate() from the block maxima it recomputes.
// fits() answers true at once when the bytes fit next to the peak
// (bytes <= capacity - peak), since then they fit in every window; only when
// that cheap test fails does it pay for the window query. Most fits() calls
// from routing take the shortcut, as machines run far below capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/interval.hpp"
#include "util/time.hpp"

namespace datastage {

class StorageTimeline {
 public:
  explicit StorageTimeline(std::int64_t capacity_bytes);

  std::int64_t capacity() const { return capacity_; }

  /// Maximum usage at any instant within [iv.begin, iv.end).
  std::int64_t max_usage(const Interval& iv) const;

  /// Free bytes guaranteed throughout `iv`.
  std::int64_t min_free(const Interval& iv) const { return capacity_ - max_usage(iv); }

  /// Maximum usage at any instant.
  std::int64_t peak() const { return peak_; }

  /// Free bytes guaranteed at every instant: `bytes` up to this fit in any
  /// window.
  std::int64_t headroom() const { return capacity_ - peak_; }

  /// True iff `bytes` fit throughout `iv`. O(1) when they fit the headroom.
  bool fits(std::int64_t bytes, const Interval& iv) const {
    return bytes <= headroom() || bytes <= min_free(iv);
  }

  /// Adds `bytes` of usage throughout `iv`. Asserts the result never exceeds
  /// capacity (callers must check with fits() first).
  void allocate(std::int64_t bytes, const Interval& iv);

  /// Usage at a single instant.
  std::int64_t usage_at(SimTime t) const;

 private:
  // Usage level starting at `time`, lasting until the next breakpoint.
  struct Breakpoint {
    SimTime time;
    std::int64_t usage;
  };

  // Breakpoints per block of `block_max_`.
  static constexpr std::size_t kBlock = 32;

  // Index of the first breakpoint later than `t`.
  std::size_t first_after(SimTime t) const;
  // Index of the breakpoint at `t`, inserting one at the current level.
  std::size_t split(SimTime t);

  // Invariant: times strictly ascending, adjacent usage values differ, usage
  // is 0 before the first breakpoint (the constructor places one at time 0).
  std::vector<Breakpoint> points_;
  // block_max_[b] = max usage over points_[b * kBlock, (b + 1) * kBlock).
  std::vector<std::int64_t> block_max_;
  // Max of block_max_: usage only grows, so allocate() raises it in place.
  std::int64_t peak_ = 0;
  std::int64_t capacity_;
};

}  // namespace datastage
