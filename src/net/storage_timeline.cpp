#include "net/storage_timeline.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

StorageTimeline::StorageTimeline(std::int64_t capacity_bytes)
    : points_{Breakpoint{SimTime::zero(), 0}}, block_max_{0}, capacity_(capacity_bytes) {
  DS_ASSERT(capacity_bytes >= 0);
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

  block_max_.resize((points_.size() + kBlock - 1) / kBlock);
  for (std::size_t b = first / kBlock; b < block_max_.size(); ++b) {
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
