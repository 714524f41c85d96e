#include "model/scenario.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

TEST(ScenarioTest, ChainFixtureIsValid) {
  const Scenario s = testing::chain_scenario();
  EXPECT_TRUE(s.validate().empty());
  EXPECT_EQ(s.machine_count(), 3u);
  EXPECT_EQ(s.item_count(), 1u);
  EXPECT_EQ(s.request_count(), 1u);
}

TEST(ScenarioTest, LatestDeadlineAndGcTime) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB).machine(kGB)
                         .link(0, 1, 1'000'000, kAlways)
                         .link(0, 2, 1'000'000, kAlways)
                         .gamma(SimDuration::minutes(6))
                         .item(1000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .request(2, at_min(45))
                         .build();
  EXPECT_EQ(s.items[0].latest_deadline(), at_min(45));
  EXPECT_EQ(s.gc_time(ItemId(0)), at_min(51));
}

TEST(ScenarioTest, RequestAccessorByRef) {
  const Scenario s = testing::chain_scenario();
  const Request& r = s.request(RequestRef{ItemId(0), 0});
  EXPECT_EQ(r.destination, MachineId(2));
  EXPECT_EQ(r.priority, kPriorityHigh);
}

TEST(ScenarioValidateTest, DetectsEmptyMachines) {
  Scenario s;
  s.horizon = at_min(10);
  const auto errors = s.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("no machines"), std::string::npos);
}

TEST(ScenarioValidateTest, DetectsBadCapacity) {
  Scenario s = ScenarioBuilder().machine(0).build_unchecked();
  bool found = false;
  for (const auto& e : s.validate()) {
    found = found || e.find("capacity") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioValidateTest, DetectsSelfLoopLink) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 0, 1000, kAlways)
                         .build_unchecked();
  bool found = false;
  for (const auto& e : s.validate()) found = found || e.find("self-loop") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(ScenarioValidateTest, DetectsOverlappingVirtualWindows) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 1000, Interval{at_min(0), at_min(30)})
                         .window(Interval{at_min(20), at_min(40)})
                         .build_unchecked();
  bool found = false;
  for (const auto& e : s.validate()) found = found || e.find("overlaps") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(ScenarioValidateTest, AllowsTouchingVirtualWindows) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 1000, Interval{at_min(0), at_min(30)})
                         .window(Interval{at_min(30), at_min(40)})
                         .item(100)
                         .source(0, SimTime::zero())
                         .request(1, at_min(20))
                         .build_unchecked();
  EXPECT_TRUE(s.validate().empty());
}

TEST(ScenarioValidateTest, DetectsItemWithoutSourcesOrRequests) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 1000, kAlways)
                         .item(100)
                         .build_unchecked();
  std::size_t hits = 0;
  for (const auto& e : s.validate()) {
    if (e.find("no sources") != std::string::npos) ++hits;
    if (e.find("no requests") != std::string::npos) ++hits;
  }
  EXPECT_EQ(hits, 2u);
}

TEST(ScenarioValidateTest, DetectsDestinationThatIsSource) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 1000, kAlways)
                         .item(100)
                         .source(0, SimTime::zero())
                         .request(0, at_min(20))
                         .build_unchecked();
  bool found = false;
  for (const auto& e : s.validate()) {
    found = found || e.find("also a source") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioValidateTest, DetectsDuplicateRequestFromOneMachine) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 1, 1000, kAlways)
                         .item(100)
                         .source(0, SimTime::zero())
                         .request(1, at_min(20))
                         .request(1, at_min(30))
                         .build_unchecked();
  bool found = false;
  for (const auto& e : s.validate()) {
    found = found || e.find("duplicate request") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioValidateTest, DetectsOutOfRangeIds) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(kGB)
                         .link(0, 5, 1000, kAlways)
                         .item(100)
                         .source(9, SimTime::zero())
                         .request(1, at_min(20))
                         .build_unchecked();
  std::size_t hits = 0;
  for (const auto& e : s.validate()) {
    if (e.find("out of range") != std::string::npos) ++hits;
  }
  EXPECT_GE(hits, 2u);
}

TEST(ScenarioDeathTest, CheckValidAbortsOnDefect) {
  Scenario s;
  s.horizon = at_min(10);
  EXPECT_DEATH(s.check_valid(), "invalid scenario");
}

}  // namespace
}  // namespace datastage
