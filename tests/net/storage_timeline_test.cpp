#include "net/storage_timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace datastage {
namespace {

Interval iv(std::int64_t a, std::int64_t b) {
  return Interval{SimTime::from_usec(a), SimTime::from_usec(b)};
}

TEST(StorageTimelineTest, StartsEmpty) {
  const StorageTimeline st(100);
  EXPECT_EQ(st.capacity(), 100);
  EXPECT_EQ(st.usage_at(SimTime::zero()), 0);
  EXPECT_EQ(st.max_usage(iv(0, 1'000'000)), 0);
  EXPECT_EQ(st.min_free(iv(0, 1'000'000)), 100);
}

TEST(StorageTimelineTest, SingleAllocation) {
  StorageTimeline st(100);
  st.allocate(30, iv(10, 50));
  EXPECT_EQ(st.usage_at(SimTime::from_usec(9)), 0);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(10)), 30);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(49)), 30);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(50)), 0);  // half-open release
  EXPECT_EQ(st.max_usage(iv(0, 10)), 0);
  EXPECT_EQ(st.max_usage(iv(0, 11)), 30);
  EXPECT_EQ(st.max_usage(iv(50, 60)), 0);
}

TEST(StorageTimelineTest, OverlappingAllocationsStack) {
  StorageTimeline st(100);
  st.allocate(30, iv(10, 50));
  st.allocate(40, iv(30, 80));
  EXPECT_EQ(st.max_usage(iv(0, 100)), 70);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(30)), 70);
  EXPECT_EQ(st.usage_at(SimTime::from_usec(50)), 40);
  EXPECT_TRUE(st.fits(30, iv(0, 100)));
  EXPECT_FALSE(st.fits(31, iv(0, 100)));
  EXPECT_TRUE(st.fits(60, iv(50, 100)));  // after the first release
}

TEST(StorageTimelineTest, InfiniteHoldWindows) {
  StorageTimeline st(100);
  st.allocate(60, Interval{SimTime::from_usec(5), SimTime::infinity()});
  EXPECT_EQ(st.max_usage(Interval{SimTime::zero(), SimTime::infinity()}), 60);
  EXPECT_FALSE(st.fits(50, Interval{SimTime::from_usec(7), SimTime::infinity()}));
  EXPECT_TRUE(st.fits(40, Interval{SimTime::from_usec(7), SimTime::infinity()}));
  EXPECT_TRUE(st.fits(100, iv(0, 5)));  // before the hold begins
}

TEST(StorageTimelineTest, ExactCapacityFits) {
  StorageTimeline st(100);
  st.allocate(100, iv(0, 10));
  EXPECT_EQ(st.max_usage(iv(0, 10)), 100);
  EXPECT_TRUE(st.fits(100, iv(10, 20)));
  EXPECT_FALSE(st.fits(1, iv(5, 15)));
}

TEST(StorageTimelineTest, EmptyIntervalAndZeroBytesAreNoOps) {
  StorageTimeline st(10);
  st.allocate(5, iv(7, 7));
  st.allocate(0, iv(0, 100));
  EXPECT_EQ(st.max_usage(iv(0, 100)), 0);
  EXPECT_EQ(st.max_usage(iv(5, 5)), 0);  // empty query
}

TEST(StorageTimelineTest, ManyAdjacentAllocations) {
  StorageTimeline st(1000);
  for (std::int64_t i = 0; i < 10; ++i) {
    st.allocate(10, iv(i * 10, i * 10 + 10));
  }
  // Adjacent, never overlapping: max stays 10.
  EXPECT_EQ(st.max_usage(iv(0, 100)), 10);
  st.allocate(5, iv(0, 100));
  EXPECT_EQ(st.max_usage(iv(0, 100)), 15);
}

// Oracle: every query must give the same answer as a brute-force sum over
// the raw allocation list, with queries interleaved between allocations so a
// stale block maximum would show up at once.
TEST(StorageTimelineTest, RandomAllocationsMatchBruteForce) {
  constexpr std::int64_t kDomain = 500;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    StorageTimeline st(std::int64_t{1} << 40);
    std::vector<std::pair<Interval, std::int64_t>> raw;
    const auto brute_at = [&](std::int64_t t) {
      std::int64_t total = 0;
      for (const auto& [alloc_iv, bytes] : raw) {
        if (alloc_iv.contains(SimTime::from_usec(t))) total += bytes;
      }
      return total;
    };
    for (int step = 0; step < 120; ++step) {
      const std::int64_t a = rng.uniform_i64(0, kDomain);
      const std::int64_t b = a + rng.uniform_i64(1, 60);
      const std::int64_t bytes = rng.uniform_i64(1, 1000);
      st.allocate(bytes, iv(a, b));
      raw.emplace_back(iv(a, b), bytes);

      const std::int64_t t = rng.uniform_i64(0, kDomain);
      EXPECT_EQ(st.usage_at(SimTime::from_usec(t)), brute_at(t))
          << "seed " << seed << " step " << step << " t " << t;

      const std::int64_t qa = rng.uniform_i64(0, kDomain);
      const std::int64_t qb = qa + rng.uniform_i64(0, 80);
      std::int64_t best = 0;
      for (std::int64_t u = qa; u < qb; ++u) best = std::max(best, brute_at(u));
      EXPECT_EQ(st.max_usage(iv(qa, qb)), best)
          << "seed " << seed << " step " << step << " [" << qa << "," << qb << ")";
    }
  }
}

// The same oracle over hundreds of live breakpoints, so windows span many
// 32-breakpoint blocks. Holds may run forever, a coarse time grid with few
// byte sizes makes adjacent levels coincide (and merge) often, and the windows
// start and end exactly on the live breakpoints around every block edge, run
// to infinity, or begin before time zero.
TEST(StorageTimelineTest, ManyBlocksMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    StorageTimeline st(std::int64_t{1} << 40);
    std::vector<std::pair<Interval, std::int64_t>> raw;
    const auto brute_at = [&](SimTime t) {
      std::int64_t total = 0;
      for (const auto& [alloc_iv, bytes] : raw) {
        if (alloc_iv.contains(t)) total += bytes;
      }
      return total;
    };

    for (int round = 0; round < 8; ++round) {
      for (int step = 0; step < 60; ++step) {
        const std::int64_t a = 10 * rng.uniform_i64(0, 600);
        const SimTime end = rng.uniform_i64(0, 9) == 0
                                ? SimTime::infinity()
                                : SimTime::from_usec(a + 10 * rng.uniform_i64(1, 30));
        const Interval alloc_iv{SimTime::from_usec(a), end};
        const std::int64_t bytes = rng.uniform_i64(1, 3);
        st.allocate(bytes, alloc_iv);
        raw.emplace_back(alloc_iv, bytes);
      }

      // Live breakpoints with their levels: time 0, then every allocation
      // endpoint whose level differs from the one before it.
      std::vector<SimTime> times{SimTime::zero()};
      for (const auto& [alloc_iv, bytes] : raw) {
        times.push_back(alloc_iv.begin);
        times.push_back(alloc_iv.end);
      }
      std::sort(times.begin(), times.end());
      times.erase(std::unique(times.begin(), times.end()), times.end());
      std::vector<std::pair<SimTime, std::int64_t>> live;
      for (const SimTime t : times) {
        const std::int64_t level = brute_at(t);
        if (live.empty() || live.back().second != level) live.emplace_back(t, level);
      }
      const auto brute_max = [&](const Interval& w) {
        std::int64_t best = brute_at(w.begin);
        for (const auto& [t, level] : live) {
          if (w.begin < t && t < w.end) best = std::max(best, level);
        }
        return best;
      };
      const auto check = [&](const Interval& w) {
        EXPECT_EQ(st.max_usage(w), brute_max(w))
            << "seed " << seed << " round " << round << " " << w.to_string();
      };

      for (std::size_t k = 0; k < live.size(); ++k) {
        const SimTime t = live[k].first;
        EXPECT_EQ(st.usage_at(t), live[k].second) << "seed " << seed << " k " << k;
        if (k % 32 > 1 && k % 32 != 31) continue;  // around block edges only
        for (const std::size_t span : {1U, 31U, 32U, 33U, 64U, 65U, 96U}) {
          if (k + span < live.size()) check(Interval{t, live[k + span].first});
        }
        check(Interval{t, SimTime::infinity()});
        check(Interval{SimTime::from_usec(-50), t});
      }
      check(Interval{SimTime::from_usec(-50), SimTime::infinity()});
      if (round == 7) {
        EXPECT_GE(live.size(), 300U) << "seed " << seed;
      }
    }
  }
}

// Headroom oracle: the peak equals the brute-force maximum over all time,
// and fits() answers exactly `bytes <= capacity - max_usage(iv)` on both
// sides of the headroom shortcut, including bytes == capacity - peak. The
// capacity is tight and allocations land anywhere on the axis, so the peak
// moves in blocks before, at and after the first block an allocation edits.
TEST(StorageTimelineTest, PeakAndFitsMatchBruteForce) {
  constexpr std::int64_t kCapacity = 400;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    StorageTimeline st(kCapacity);
    std::vector<std::pair<Interval, std::int64_t>> raw;
    const auto brute_at = [&](SimTime t) {
      std::int64_t total = 0;
      for (const auto& [alloc_iv, bytes] : raw) {
        if (alloc_iv.contains(t)) total += bytes;
      }
      return total;
    };
    // The maximum of the step function over [w.begin, w.end): its level at
    // w.begin or at an allocation endpoint strictly inside.
    const auto brute_max = [&](const Interval& w) {
      if (w.empty()) return std::int64_t{0};
      std::int64_t best = brute_at(w.begin);
      for (const auto& [alloc_iv, bytes] : raw) {
        for (const SimTime t : {alloc_iv.begin, alloc_iv.end}) {
          if (w.begin < t && t < w.end) best = std::max(best, brute_at(t));
        }
      }
      return best;
    };
    const Interval all{SimTime::from_usec(-10), SimTime::infinity()};

    int placed = 0;
    for (int step = 0; step < 400; ++step) {
      const std::int64_t a = rng.uniform_i64(0, 2000);
      const SimTime end = rng.uniform_i64(0, 15) == 0
                              ? SimTime::infinity()
                              : SimTime::from_usec(a + rng.uniform_i64(1, 120));
      const Interval alloc_iv{SimTime::from_usec(a), end};
      const std::int64_t bytes = rng.uniform_i64(1, 40);
      const bool expect_fit = bytes <= kCapacity - brute_max(alloc_iv);
      ASSERT_EQ(st.fits(bytes, alloc_iv), expect_fit)
          << "seed " << seed << " step " << step;
      if (expect_fit) {
        st.allocate(bytes, alloc_iv);
        raw.emplace_back(alloc_iv, bytes);
        ++placed;
      }

      const std::int64_t peak = brute_max(all);
      ASSERT_EQ(st.peak(), peak) << "seed " << seed << " step " << step;
      EXPECT_EQ(st.headroom(), kCapacity - peak);

      const std::int64_t qa = rng.uniform_i64(-5, 2100);
      const Interval q{SimTime::from_usec(qa),
                       SimTime::from_usec(qa + rng.uniform_i64(0, 200))};
      const std::int64_t free_q = kCapacity - brute_max(q);
      for (const std::int64_t b : {kCapacity - peak, kCapacity - peak + 1, free_q,
                                   free_q + 1, rng.uniform_i64(0, kCapacity)}) {
        EXPECT_EQ(st.fits(b, q), b <= kCapacity - st.max_usage(q))
            << "seed " << seed << " step " << step << " bytes " << b;
        EXPECT_EQ(st.fits(b, q), b <= free_q)
            << "seed " << seed << " step " << step << " bytes " << b;
      }
    }
    // Tight enough that some allocations are refused, loose enough that the
    // timeline spans many blocks.
    EXPECT_LT(placed, 400) << "seed " << seed;
    EXPECT_GT(placed, 200) << "seed " << seed;
  }
}

TEST(StorageTimelineDeathTest, OverCapacityAllocationAborts) {
  StorageTimeline st(100);
  st.allocate(80, iv(0, 50));
  EXPECT_DEATH(st.allocate(30, iv(40, 60)), "capacity");
}

}  // namespace
}  // namespace datastage
