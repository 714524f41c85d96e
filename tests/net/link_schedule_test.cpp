#include "net/link_schedule.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;

// One link, 8 Mbit/s, window [0, 10 min), 100 ms latency.
Scenario one_link_scenario() {
  return ScenarioBuilder()
      .machine(kGB).machine(kGB)
      .link(0, 1, 8'000'000, Interval{SimTime::zero(), at_min(10)},
            SimDuration::milliseconds(100))
      .item(1'000'000)
      .source(0, SimTime::zero())
      .request(1, at_min(30))
      .build();
}

TEST(LinkScheduleTest, OccupancyIncludesLatency) {
  const Scenario s = one_link_scenario();
  const LinkSchedule schedule(s);
  // 1 MB at 8 Mbit/s = 1 s, plus 100 ms latency.
  EXPECT_EQ(schedule.occupancy(VirtLinkId(0), 1'000'000),
            SimDuration::seconds(1) + SimDuration::milliseconds(100));
}

TEST(LinkScheduleTest, EarliestFitOnEmptyLink) {
  const Scenario s = one_link_scenario();
  const LinkSchedule schedule(s);
  const auto fit = schedule.earliest_fit(VirtLinkId(0), 1'000'000, at_sec(5));
  ASSERT_TRUE(fit.has_value());
  EXPECT_EQ(fit->start, at_sec(5));
  EXPECT_EQ(fit->arrival, at_sec(6) + SimDuration::milliseconds(100));
}

TEST(LinkScheduleTest, ReservationsSerializeTransfers) {
  const Scenario s = one_link_scenario();
  LinkSchedule schedule(s);
  schedule.reserve(VirtLinkId(0), 1'000'000, SimTime::zero());
  const auto fit = schedule.earliest_fit(VirtLinkId(0), 1'000'000, SimTime::zero());
  ASSERT_TRUE(fit.has_value());
  // Must wait for the first transfer to release the link.
  EXPECT_EQ(fit->start, at_sec(1) + SimDuration::milliseconds(100));
  EXPECT_TRUE(schedule.busy_overlaps(VirtLinkId(0),
                                     Interval{at_sec(0), at_sec(1)}));
  EXPECT_FALSE(schedule.busy_overlaps(
      VirtLinkId(0), Interval{at_sec(2), at_sec(3)}));
}

TEST(LinkScheduleTest, NoFitWhenWindowRemainderTooShort) {
  const Scenario s = one_link_scenario();
  const LinkSchedule schedule(s);
  // Ready 0.5 s before window end: a 1.1 s occupancy cannot fit.
  const SimTime late = at_min(10) - SimDuration::milliseconds(500);
  EXPECT_FALSE(schedule.earliest_fit(VirtLinkId(0), 1'000'000, late).has_value());
}

TEST(LinkScheduleTest, FitSnugAgainstWindowEnd) {
  const Scenario s = one_link_scenario();
  const LinkSchedule schedule(s);
  const SimTime snug = at_min(10) - SimDuration::seconds(1) -
                       SimDuration::milliseconds(100);
  const auto fit = schedule.earliest_fit(VirtLinkId(0), 1'000'000, snug);
  ASSERT_TRUE(fit.has_value());
  EXPECT_EQ(fit->start, snug);
  EXPECT_EQ(fit->arrival, at_min(10));
}

TEST(LinkScheduleDeathTest, ReserveOutsideWindowAborts) {
  const Scenario s = one_link_scenario();
  LinkSchedule schedule(s);
  EXPECT_DEATH(schedule.reserve(VirtLinkId(0), 1'000'000,
                                at_min(10) - SimDuration::milliseconds(1)),
               "window");
}

TEST(LinkScheduleDeathTest, DoubleReserveAborts) {
  const Scenario s = one_link_scenario();
  LinkSchedule schedule(s);
  schedule.reserve(VirtLinkId(0), 1'000'000, SimTime::zero());
  EXPECT_DEATH(schedule.reserve(VirtLinkId(0), 1'000'000, at_sec(1)), "overlaps");
}

}  // namespace
}  // namespace datastage
