#include "net/storage_timeline.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

StorageTimeline::StorageTimeline(std::int64_t capacity_bytes)
    : points_{Breakpoint{SimTime::zero(), 0}}, block_max_{0}, capacity_(capacity_bytes) {
  DS_ASSERT(capacity_bytes >= 0);
}

StorageTimeline::StorageTimeline(std::int64_t capacity_bytes,
                                 std::span<const StorageCharge> charges,
                                 const char* overflow_message)
    : StorageTimeline(capacity_bytes) {
  rebuild(charges, overflow_message);
}

void StorageTimeline::rebuild(std::span<const StorageCharge> charges,
                              const char* overflow_message) {
  points_.clear();
  points_.push_back(Breakpoint{SimTime::zero(), 0});
  peak_ = 0;
  // Each charge is a +bytes edge at its begin and a -bytes edge at its end,
  // staged in points_ itself (usage holds the delta) behind the time-0 point.
  // Ends at infinity() (holds kept forever) are summed aside and placed after
  // the sort instead of sorted one by one.
  points_.reserve(2 * charges.size() + 1);
  std::int64_t forever = 0;
  for (const StorageCharge& c : charges) {
    DS_ASSERT(c.bytes >= 0);
    if (c.bytes == 0 || c.window.empty()) continue;
    points_.push_back(Breakpoint{c.window.begin, c.bytes});
    if (c.window.end == SimTime::infinity()) {
      forever += c.bytes;
    } else {
      points_.push_back(Breakpoint{c.window.end, -c.bytes});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Breakpoint& x, const Breakpoint& y) { return x.time < y.time; });
  if (forever > 0) {
    const auto at = static_cast<std::ptrdiff_t>(first_after(SimTime::infinity()));
    points_.insert(points_.begin() + at, Breakpoint{SimTime::infinity(), -forever});
  }
  // Sum the deltas of each instant into a level, in place; keep the first
  // instant (time 0, unless a hold starts earlier) and every instant where
  // the level changes.
  std::size_t kept = 0;
  std::int64_t level = 0;
  for (std::size_t i = 0; i < points_.size();) {
    const SimTime t = points_[i].time;
    for (; i < points_.size() && points_[i].time == t; ++i) level += points_[i].usage;
    if (kept == 0 || level != points_[kept - 1].usage) points_[kept++] = Breakpoint{t, level};
  }
  points_.resize(kept);
  refresh_blocks(0);
  DS_ASSERT_MSG(peak_ <= capacity_, overflow_message);
}

std::vector<StorageTimeline> StorageTimeline::per_machine(
    const std::vector<Machine>& machines, std::span<const StorageCharge> charges,
    const char* overflow_message) {
  std::vector<StorageTimeline> timelines;
  per_machine(machines, charges, overflow_message, timelines);
  return timelines;
}

void StorageTimeline::per_machine(const std::vector<Machine>& machines,
                                  std::span<const StorageCharge> charges,
                                  const char* overflow_message,
                                  std::vector<StorageTimeline>& timelines) {
  // Counting sort by machine, stable, so each machine's charges stay in order.
  std::vector<std::size_t> offset(machines.size() + 1, 0);
  for (const StorageCharge& c : charges) ++offset[c.machine.index() + 1];
  for (std::size_t m = 0; m < machines.size(); ++m) offset[m + 1] += offset[m];
  std::vector<StorageCharge> grouped(charges.size());
  std::vector<std::size_t> next(offset.begin(), offset.end() - 1);
  for (const StorageCharge& c : charges) grouped[next[c.machine.index()]++] = c;

  timelines.resize(machines.size(), StorageTimeline(0));
  for (std::size_t m = 0; m < machines.size(); ++m) {
    timelines[m].capacity_ = machines[m].capacity_bytes;
    DS_ASSERT(timelines[m].capacity_ >= 0);
    timelines[m].rebuild(
        std::span<const StorageCharge>(grouped).subspan(offset[m], offset[m + 1] - offset[m]),
        overflow_message);
  }
}

std::size_t StorageTimeline::first_after(SimTime t) const {
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](SimTime value, const Breakpoint& bp) { return value < bp.time; });
  return static_cast<std::size_t>(it - points_.begin());
}

std::int64_t StorageTimeline::usage_at(SimTime t) const {
  const std::size_t i = first_after(t);
  return i == 0 ? 0 : points_[i - 1].usage;
}

std::int64_t StorageTimeline::max_usage(const Interval& iv) const {
  if (iv.empty()) return 0;
  // The maximum of a step function over [begin, end) is the level in effect
  // at begin or the level of a breakpoint strictly inside the window.
  std::size_t i = first_after(iv.begin);
  const auto stop = static_cast<std::size_t>(
      std::lower_bound(points_.begin() + static_cast<std::ptrdiff_t>(i), points_.end(),
                       iv.end,
                       [](const Breakpoint& bp, SimTime value) { return bp.time < value; }) -
      points_.begin());
  std::int64_t best = i == 0 ? 0 : points_[i - 1].usage;
  while (i < stop) {
    if (i % kBlock == 0 && i + kBlock <= stop) {
      best = std::max(best, block_max_[i / kBlock]);
      i += kBlock;
    } else {
      best = std::max(best, points_[i].usage);
      ++i;
    }
  }
  return best;
}

std::size_t StorageTimeline::split(SimTime t) {
  const std::size_t i = first_after(t);
  if (i > 0 && points_[i - 1].time == t) return i - 1;
  const std::int64_t level = i == 0 ? 0 : points_[i - 1].usage;
  points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(i), Breakpoint{t, level});
  return i;
}

void StorageTimeline::allocate(std::int64_t bytes, const Interval& iv) {
  DS_ASSERT(bytes >= 0);
  if (iv.empty() || bytes == 0) return;
  DS_ASSERT_MSG(max_usage(iv) + bytes <= capacity_,
                "storage allocation exceeds machine capacity (caller must "
                "check fits() first)");
  const std::size_t first = split(iv.begin);
  const std::size_t last = split(iv.end);
  for (std::size_t i = first; i < last; ++i) points_[i].usage += bytes;
  // Only the window edges can now repeat their left neighbour's level; drop
  // them (right edge first, so `first` stays valid) to keep levels distinct.
  const auto erase_if_flat = [this](std::size_t i) {
    if (i > 0 && points_[i].usage == points_[i - 1].usage) {
      points_.erase(points_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };
  erase_if_flat(last);
  erase_if_flat(first);
  refresh_blocks(first / kBlock);
}

void StorageTimeline::refresh_blocks(std::size_t first_block) {
  block_max_.resize((points_.size() + kBlock - 1) / kBlock);
  for (std::size_t b = first_block; b < block_max_.size(); ++b) {
    const auto lo = points_.begin() + static_cast<std::ptrdiff_t>(b * kBlock);
    const auto hi = points_.begin() +
                    static_cast<std::ptrdiff_t>(std::min(points_.size(), (b + 1) * kBlock));
    block_max_[b] = std::max_element(lo, hi, [](const Breakpoint& x, const Breakpoint& y) {
                      return x.usage < y.usage;
                    })->usage;
    peak_ = std::max(peak_, block_max_[b]);
  }
}

}  // namespace datastage
