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
//
// Bulk build: a timeline can also be swept from a whole list of charges at
// once, O(n log n) for n charges instead of n allocate() calls of O(B) each.
// The representation is canonical (see the invariant on points_): it is fixed
// by the usage function alone, so the swept timeline equals the one the
// charges would build allocated one by one, in any order, and answers every
// later call identically. The check against capacity runs once, after the
// sweep: usage only grows charge by charge, so that aborts exactly when a
// check per charge would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/scenario.hpp"
#include "util/ids.hpp"
#include "util/interval.hpp"
#include "util/time.hpp"

namespace datastage {

/// `bytes` of usage on `machine` throughout `window`.
struct StorageCharge {
  MachineId machine;
  std::int64_t bytes = 0;
  Interval window;
};

class StorageTimeline {
 public:
  explicit StorageTimeline(std::int64_t capacity_bytes);

  /// The timeline after allocate() of every charge in `charges` (their
  /// `machine` is not read), swept in one pass. Aborts with
  /// `overflow_message` when the usage exceeds capacity at any instant.
  StorageTimeline(std::int64_t capacity_bytes, std::span<const StorageCharge> charges,
                  const char* overflow_message);

  /// One timeline per machine, each built from the charges naming it.
  static std::vector<StorageTimeline> per_machine(const std::vector<Machine>& machines,
                                                  std::span<const StorageCharge> charges,
                                                  const char* overflow_message);
  /// per_machine() into `timelines`, reusing the buffers of those it holds.
  static void per_machine(const std::vector<Machine>& machines,
                          std::span<const StorageCharge> charges,
                          const char* overflow_message,
                          std::vector<StorageTimeline>& timelines);

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

  /// Same capacity and the same breakpoints (hence the same usage function;
  /// the representation is canonical).
  friend bool operator==(const StorageTimeline&, const StorageTimeline&) = default;

 private:
  // Usage level starting at `time`, lasting until the next breakpoint.
  struct Breakpoint {
    SimTime time;
    std::int64_t usage;
    friend bool operator==(const Breakpoint&, const Breakpoint&) = default;
  };

  // Breakpoints per block of `block_max_`.
  static constexpr std::size_t kBlock = 32;

  // Replaces the usage with the sweep of `charges` (the sweeping
  // constructor's body), reusing the buffers.
  void rebuild(std::span<const StorageCharge> charges, const char* overflow_message);
  // Index of the first breakpoint later than `t`.
  std::size_t first_after(SimTime t) const;
  // Index of the breakpoint at `t`, inserting one at the current level.
  std::size_t split(SimTime t);
  // Recomputes block_max_ from block `first_block` on and raises peak_.
  void refresh_blocks(std::size_t first_block);

  // Invariant: times strictly ascending, adjacent usage values differ, usage
  // is 0 before the first breakpoint (the constructor places one at time 0).
  // With every charge at or after time 0 this makes the vector canonical:
  // the time-0 point plus one point per instant where usage changes,
  // including a point at infinity() when holds end there. A hold starting
  // before time 0 (unchecked hand-built scenarios only) makes allocate()
  // keep a redundant time-0 point at its left neighbour's level, which the
  // sweep omits; both describe the same usage, so every query agrees.
  std::vector<Breakpoint> points_;
  // block_max_[b] = max usage over points_[b * kBlock, (b + 1) * kBlock).
  std::vector<std::int64_t> block_max_;
  // Max of block_max_: usage only grows, so allocate() raises it in place.
  std::int64_t peak_ = 0;
  std::int64_t capacity_;
};

}  // namespace datastage
