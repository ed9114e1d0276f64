// Property tests for the fleet placement policies: health is inviolable
// (no policy ever routes to a quarantined device), round-robin cycles as a
// permutation over the healthy set, least-loaded/copy-aware minimize their
// scores with lowest-index tie-breaks, and class-affinity's fallback scan
// is deterministic.
#include "fleet/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "fleet/fleet.hpp"

namespace hq::fleet {
namespace {

std::vector<DeviceLoad> healthy_loads(std::size_t n) {
  return std::vector<DeviceLoad>(n, DeviceLoad{true, 0, 0});
}

TEST(PlacementTest, NamesRoundTrip) {
  // Through the config's codec row, which hqserve's --placement reads.
  for (const PlacementPolicy policy : all_placement_policies()) {
    FleetConfig config;
    ASSERT_TRUE(codec::parse(
        std::string("placement=") + placement_policy_name(policy), &config,
        nullptr));
    EXPECT_EQ(config.placement, policy);
  }
  FleetConfig config;
  EXPECT_FALSE(codec::parse("placement=wat", &config, nullptr));
}

TEST(PlacementTest, NoPolicyEverPicksAnUnhealthyDevice) {
  // Randomized sweep: any load shape, any health mask with at least one
  // healthy device — the pick is always healthy.
  Rng rng(7);
  for (const PlacementPolicy policy : all_placement_policies()) {
    Placer placer(policy, 2.0);
    for (int trial = 0; trial < 500; ++trial) {
      const std::size_t n = 1 + rng.next_below(6);
      std::vector<DeviceLoad> loads(n);
      for (DeviceLoad& d : loads) {
        d.healthy = rng.next_below(3) != 0;
        d.outstanding = rng.next_below(10);
        d.copy_depth = rng.next_below(5);
      }
      loads[rng.next_below(n)].healthy = true;  // at least one healthy
      const auto pick = placer.place(loads, rng.next_below(4));
      ASSERT_TRUE(pick.has_value());
      EXPECT_TRUE(loads[*pick].healthy)
          << placement_policy_name(policy) << " picked quarantined device "
          << *pick;
    }
  }
}

TEST(PlacementTest, AllPoliciesReturnNulloptWhenNoDeviceIsHealthy) {
  std::vector<DeviceLoad> loads(4, DeviceLoad{false, 0, 0});
  for (const PlacementPolicy policy : all_placement_policies()) {
    Placer placer(policy, 2.0);
    EXPECT_FALSE(placer.place(loads, 0).has_value())
        << placement_policy_name(policy);
  }
}

TEST(PlacementTest, RoundRobinIsAPermutationOverAllDevices) {
  Placer placer(PlacementPolicy::RoundRobin, 2.0);
  const auto loads = healthy_loads(5);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5; ++i) {
    const auto pick = placer.place(loads, 0);
    ASSERT_TRUE(pick.has_value());
    ++hits[*pick];
  }
  // One full cycle touches every device exactly once.
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(PlacementTest, RoundRobinIsAPermutationOverTheHealthySubset) {
  Placer placer(PlacementPolicy::RoundRobin, 2.0);
  std::vector<DeviceLoad> loads = healthy_loads(6);
  loads[1].healthy = false;
  loads[4].healthy = false;
  std::vector<int> hits(6, 0);
  for (int i = 0; i < 4; ++i) {
    const auto pick = placer.place(loads, 0);
    ASSERT_TRUE(pick.has_value());
    ++hits[*pick];
  }
  EXPECT_EQ(hits[1], 0);
  EXPECT_EQ(hits[4], 0);
  for (const std::size_t d : {0u, 2u, 3u, 5u}) EXPECT_EQ(hits[d], 1) << d;
}

TEST(PlacementTest, LeastLoadedPicksMinimumOutstandingLowestIndexTie) {
  Placer placer(PlacementPolicy::LeastLoaded, 2.0);
  std::vector<DeviceLoad> loads = healthy_loads(4);
  loads[0].outstanding = 3;
  loads[1].outstanding = 1;
  loads[2].outstanding = 1;
  loads[3].outstanding = 2;
  EXPECT_EQ(placer.place(loads, 0), std::optional<std::size_t>(1));
}

TEST(PlacementTest, LeastLoadedSkipsQuarantinedMinimum) {
  Placer placer(PlacementPolicy::LeastLoaded, 2.0);
  std::vector<DeviceLoad> loads = healthy_loads(3);
  loads[0].outstanding = 0;
  loads[0].healthy = false;  // the global minimum is quarantined
  loads[1].outstanding = 5;
  loads[2].outstanding = 2;
  EXPECT_EQ(placer.place(loads, 0), std::optional<std::size_t>(2));
}

TEST(PlacementTest, CopyAwareWeighsCopyQueueDepth) {
  Placer placer(PlacementPolicy::CopyAware, 2.0);
  std::vector<DeviceLoad> loads = healthy_loads(2);
  // Device 0: fewer jobs but a deep copy queue (score 1 + 2*3 = 7).
  // Device 1: more jobs, idle engines (score 2 + 2*0 = 2).
  loads[0].outstanding = 1;
  loads[0].copy_depth = 3;
  loads[1].outstanding = 2;
  EXPECT_EQ(placer.place(loads, 0), std::optional<std::size_t>(1));

  // With a zero penalty the same snapshot degenerates to least-loaded.
  Placer unweighted(PlacementPolicy::CopyAware, 0.0);
  EXPECT_EQ(unweighted.place(loads, 0), std::optional<std::size_t>(0));
}

TEST(PlacementTest, ClassAffinityPrefersClassModuloDevices) {
  Placer placer(PlacementPolicy::ClassAffinity, 2.0);
  const auto loads = healthy_loads(3);
  EXPECT_EQ(placer.place(loads, 0), std::optional<std::size_t>(0));
  EXPECT_EQ(placer.place(loads, 1), std::optional<std::size_t>(1));
  EXPECT_EQ(placer.place(loads, 2), std::optional<std::size_t>(2));
  EXPECT_EQ(placer.place(loads, 4), std::optional<std::size_t>(1));
}

TEST(PlacementTest, ClassAffinityFallbackIsDeterministicCyclicScan) {
  Placer placer(PlacementPolicy::ClassAffinity, 2.0);
  std::vector<DeviceLoad> loads = healthy_loads(4);
  loads[1].healthy = false;
  loads[2].healthy = false;
  // Class 1 prefers device 1; the scan continues 2, 3 and lands on 3.
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(placer.place(loads, 1), std::optional<std::size_t>(3));
  }
  // Class 3 is already on its healthy preferred device.
  EXPECT_EQ(placer.place(loads, 3), std::optional<std::size_t>(3));
}

TEST(PlacementTest, IdenticalSnapshotsYieldIdenticalDecisions) {
  // The placer is deterministic state: replaying the same load/class
  // sequence through two instances gives identical picks.
  Rng rng(11);
  for (const PlacementPolicy policy : all_placement_policies()) {
    Placer a(policy, 2.0);
    Placer b(policy, 2.0);
    Rng loads_a(99);
    Rng loads_b(99);
    const auto draw = [](Rng& r) {
      std::vector<DeviceLoad> loads(4);
      for (DeviceLoad& d : loads) {
        d.healthy = r.next_below(4) != 0;
        d.outstanding = r.next_below(8);
        d.copy_depth = r.next_below(4);
      }
      return loads;
    };
    for (int i = 0; i < 200; ++i) {
      const std::size_t klass = rng.next_below(5);
      EXPECT_EQ(a.place(draw(loads_a), klass), b.place(draw(loads_b), klass));
    }
  }
}

}  // namespace
}  // namespace hq::fleet
