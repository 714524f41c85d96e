#include "net/network_state.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_min;
using testing::at_sec;
using testing::ScenarioBuilder;

constexpr std::int64_t kGB = 1 << 30;
const Interval kAlways{SimTime::zero(), at_min(120)};

TEST(NetworkStateTest, InitialCopiesChargedAtSources) {
  const Scenario s = testing::chain_scenario();
  const NetworkState state(s);
  ASSERT_EQ(state.copies(ItemId(0)).size(), 1u);
  EXPECT_EQ(state.copies(ItemId(0))[0].machine, MachineId(0));
  EXPECT_EQ(state.copies(ItemId(0))[0].available_at, SimTime::zero());
  EXPECT_TRUE(state.has_copy(ItemId(0), MachineId(0)));
  EXPECT_FALSE(state.has_copy(ItemId(0), MachineId(1)));
  // Source storage is charged forever.
  EXPECT_EQ(state.storage(MachineId(0))
                .max_usage(Interval{SimTime::zero(), SimTime::infinity()}),
            1'000'000);
  EXPECT_EQ(state.storage(MachineId(1))
                .max_usage(Interval{SimTime::zero(), SimTime::infinity()}),
            0);
}

TEST(NetworkStateTest, RolesDriveHoldEnd) {
  const Scenario s = testing::chain_scenario();  // A source, B relay, C dest
  const NetworkState state(s);
  EXPECT_TRUE(state.hold_end(ItemId(0), MachineId(0)).is_infinite());  // source
  EXPECT_EQ(state.hold_end(ItemId(0), MachineId(1)),
            s.gc_time(ItemId(0)));  // intermediate -> gc
  EXPECT_TRUE(state.hold_end(ItemId(0), MachineId(2)).is_infinite());  // dest
}

TEST(NetworkStateTest, ApplyTransferMovesCopyAndChargesStorage) {
  const Scenario s = testing::chain_scenario();
  NetworkState state(s);
  const AppliedTransfer applied =
      state.apply_transfer(ItemId(0), VirtLinkId(0), SimTime::zero());
  EXPECT_EQ(applied.arrival, at_sec(1));
  EXPECT_EQ(applied.link, VirtLinkId(0));
  EXPECT_EQ(applied.link_busy, (Interval{SimTime::zero(), at_sec(1)}));
  ASSERT_TRUE(applied.storage_interval.has_value());
  EXPECT_EQ(applied.storage_interval->begin, SimTime::zero());
  EXPECT_EQ(applied.storage_interval->end, s.gc_time(ItemId(0)));

  EXPECT_TRUE(state.has_copy(ItemId(0), MachineId(1)));
  EXPECT_EQ(*state.copy_available_at(ItemId(0), MachineId(1)), at_sec(1));
  EXPECT_EQ(state.transfer_count(), 1u);
  // Intermediate storage: charged during hold, free after gc.
  const StorageTimeline& st = state.storage(MachineId(1));
  EXPECT_EQ(st.usage_at(at_min(1)), 1'000'000);
  EXPECT_EQ(st.usage_at(s.gc_time(ItemId(0))), 0);
}

TEST(NetworkStateTest, GarbageCollectionFreesIntermediateOnly) {
  const Scenario s = testing::chain_scenario();
  NetworkState state(s);
  state.apply_transfer(ItemId(0), VirtLinkId(0), SimTime::zero());   // A->B
  state.apply_transfer(ItemId(0), VirtLinkId(1), at_sec(1));         // B->C
  // C is a destination: holds forever.
  EXPECT_EQ(state.storage(MachineId(2)).usage_at(at_min(119)), 1'000'000);
  // B is an intermediate: freed at gc (deadline 30min + γ 6min).
  EXPECT_EQ(state.storage(MachineId(1)).usage_at(at_min(35)), 1'000'000);
  EXPECT_EQ(state.storage(MachineId(1)).usage_at(at_min(37)), 0);
}

TEST(NetworkStateTest, CanApplyChecksEverything) {
  const Scenario s = testing::chain_scenario();
  NetworkState state(s);
  // Sender holds copy from t=0: ok at 0.
  EXPECT_TRUE(state.can_apply(ItemId(0), VirtLinkId(0), SimTime::zero()));
  // B->C before B has the copy: rejected.
  EXPECT_FALSE(state.can_apply(ItemId(0), VirtLinkId(1), SimTime::zero()));
  state.apply_transfer(ItemId(0), VirtLinkId(0), SimTime::zero());
  // Now B has it from t=1s.
  EXPECT_FALSE(state.can_apply(ItemId(0), VirtLinkId(1), at_sec(0)));
  EXPECT_TRUE(state.can_apply(ItemId(0), VirtLinkId(1), at_sec(1)));
  // Link 0 busy during [0,1s): overlapping second transfer rejected.
  EXPECT_FALSE(state.can_apply(ItemId(0), VirtLinkId(0),
                               SimTime::zero() + SimDuration::milliseconds(500)));
}

TEST(NetworkStateTest, CanHoldRejectsTightReceiver) {
  const Scenario s = ScenarioBuilder()
                         .machine(kGB)
                         .machine(1'000'000)  // exactly one item
                         .link(0, 1, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(40))
                         .build();
  NetworkState state(s);
  EXPECT_TRUE(state.can_hold(ItemId(0), MachineId(1), SimTime::zero()));
  state.apply_transfer(ItemId(0), VirtLinkId(0), SimTime::zero());
  // M1 is a destination: holds item 0 forever, so item 1 never fits.
  EXPECT_FALSE(state.can_hold(ItemId(1), MachineId(1), at_min(1)));
  EXPECT_FALSE(state.can_apply(ItemId(1), VirtLinkId(0), at_min(1)));
}

TEST(NetworkStateTest, CanHoldAtTheHeadroomEdge) {
  // M1 keeps item 0 forever, leaving exactly 500'000 bytes of headroom: an
  // item of that size fits on the shortcut, one byte more fails the window
  // query.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB)
                         .machine(1'500'000)
                         .link(0, 1, 8'000'000, kAlways)
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .item(500'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(40))
                         .item(500'001)
                         .source(0, SimTime::zero())
                         .request(1, at_min(40))
                         .build();
  NetworkState state(s);
  state.apply_transfer(ItemId(0), VirtLinkId(0), SimTime::zero());
  EXPECT_EQ(state.storage(MachineId(1)).headroom(), 500'000);
  EXPECT_TRUE(state.can_hold(ItemId(1), MachineId(1), at_min(1)));
  EXPECT_FALSE(state.can_hold(ItemId(2), MachineId(1), at_min(1)));
}

TEST(NetworkStateTest, EarlierArrivalExtendsExistingHold) {
  // Two windows: a late fast one was used first; then an earlier transfer
  // lands the copy sooner and only the extension is charged.
  const Scenario s = ScenarioBuilder()
                         .machine(kGB).machine(3'000'000)
                         .link(0, 1, 8'000'000, Interval{SimTime::zero(), at_min(60)})
                         .item(1'000'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build();
  NetworkState state(s);
  state.apply_transfer(ItemId(0), VirtLinkId(0), at_min(10));
  EXPECT_EQ(*state.copy_available_at(ItemId(0), MachineId(1)),
            at_min(10) + SimDuration::seconds(1));
  const std::int64_t usage_before =
      state.storage(MachineId(1)).usage_at(at_min(5));
  EXPECT_EQ(usage_before, 0);

  const AppliedTransfer earlier =
      state.apply_transfer(ItemId(0), VirtLinkId(0), SimTime::zero());
  EXPECT_EQ(earlier.arrival, at_sec(1));
  ASSERT_TRUE(earlier.storage_interval.has_value());
  EXPECT_EQ(earlier.storage_interval->end, at_min(10));  // extension only
  EXPECT_EQ(*state.copy_available_at(ItemId(0), MachineId(1)), at_sec(1));
  // Still exactly one copy record and single-item usage, not double.
  EXPECT_EQ(state.copies(ItemId(0)).size(), 2u);  // source + receiver
  EXPECT_EQ(state.storage(MachineId(1)).usage_at(at_min(5)), 1'000'000);
  EXPECT_EQ(state.storage(MachineId(1))
                .max_usage(Interval{SimTime::zero(), SimTime::infinity()}),
            1'000'000);
}

TEST(NetworkStateTest, FiniteSourceHoldExpires) {
  // A staged-copy source (finite hold, as dynamic residuals create) frees its
  // storage at hold_until and cannot send after it.
  Scenario s = testing::chain_scenario();
  s.items[0].sources[0].hold_until = at_min(10);
  s.check_valid();
  NetworkState state(s);
  // Storage charged only during the hold window.
  EXPECT_EQ(state.storage(MachineId(0)).usage_at(at_min(5)), 1'000'000);
  EXPECT_EQ(state.storage(MachineId(0)).usage_at(at_min(11)), 0);
  EXPECT_EQ(state.hold_end(ItemId(0), MachineId(0)), at_min(10));
  // Sending before expiry works; after expiry it must be rejected.
  EXPECT_TRUE(state.can_apply(ItemId(0), VirtLinkId(0), at_min(9)));
  EXPECT_FALSE(state.can_apply(ItemId(0), VirtLinkId(0), at_min(10)));
  EXPECT_FALSE(state.can_apply(ItemId(0), VirtLinkId(0), at_min(11)));
}

TEST(NetworkStateTest, DijkstraRespectsExpiringSource) {
  Scenario s = testing::chain_scenario();
  // The only copy expires before the second hop's link ever opens.
  s.items[0].sources[0].hold_until = at_min(10);
  s.virt_links.clear();
  const PhysicalLink& p0 = s.phys_links[0];
  const PhysicalLink& p1 = s.phys_links[1];
  s.virt_links.push_back(VirtualLink{PhysLinkId(0), p0.bandwidth_bps,
                                     Interval{at_min(15), at_min(60)}});
  s.virt_links.push_back(VirtualLink{PhysLinkId(1), p1.bandwidth_bps,
                                     Interval{at_min(15), at_min(60)}});
  s.check_valid();
  Topology topo(s);
  NetworkState state(s);
  const RouteTree tree = compute_route_tree(state, topo, ItemId(0));
  EXPECT_FALSE(tree.reached(MachineId(1)));  // copy expired before window
}

TEST(NetworkStateDeathTest, SenderWithoutCopyAborts) {
  const Scenario s = testing::chain_scenario();
  NetworkState state(s);
  EXPECT_DEATH(state.apply_transfer(ItemId(0), VirtLinkId(1), SimTime::zero()),
               "sender");
}

TEST(NetworkStateDeathTest, InitialCopiesMustFit) {
  const Scenario s = ScenarioBuilder()
                         .machine(100)  // too small for the item
                         .machine(kGB)
                         .link(0, 1, 8'000'000, kAlways)
                         .item(1'000)
                         .source(0, SimTime::zero())
                         .request(1, at_min(30))
                         .build_unchecked();
  EXPECT_DEATH(NetworkState{s}, "initial source copies");
}

}  // namespace
}  // namespace datastage
