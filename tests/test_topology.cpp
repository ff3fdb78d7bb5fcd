// Unit tests for the Clos cluster topology and routing.
#include "llmprism/topology/topology.hpp"

#include <gtest/gtest.h>

#include <set>

namespace llmprism {
namespace {

ClusterTopology topo(std::uint32_t machines = 8, std::uint32_t gpus = 8,
                     std::uint32_t per_leaf = 4, std::uint32_t spines = 2) {
  return ClusterTopology::build(
      {.num_machines = machines, .gpus_per_machine = gpus,
       .machines_per_leaf = per_leaf, .num_spines = spines});
}

TEST(TopologyTest, RejectsZeroDimensions) {
  EXPECT_THROW(topo(0), std::invalid_argument);
  EXPECT_THROW(topo(4, 0), std::invalid_argument);
  EXPECT_THROW(topo(4, 8, 0), std::invalid_argument);
  EXPECT_THROW(topo(4, 8, 4, 0), std::invalid_argument);
}

TEST(TopologyTest, DerivedSizes) {
  const auto t = topo(10, 8, 4, 3);
  EXPECT_EQ(t.num_gpus(), 80u);
  EXPECT_EQ(t.num_leaves(), 3u);  // ceil(10/4)
  EXPECT_EQ(t.num_spines(), 3u);
  EXPECT_EQ(t.num_switches(), 6u);
}

TEST(TopologyTest, MachineOfGpu) {
  const auto t = topo();
  EXPECT_EQ(t.machine_of(GpuId(0)), MachineId(0));
  EXPECT_EQ(t.machine_of(GpuId(7)), MachineId(0));
  EXPECT_EQ(t.machine_of(GpuId(8)), MachineId(1));
  EXPECT_EQ(t.machine_of(GpuId(63)), MachineId(7));
  EXPECT_THROW(static_cast<void>(t.machine_of(GpuId(64))), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.machine_of(GpuId())), std::out_of_range);
}

TEST(TopologyTest, GpusOnMachine) {
  const auto t = topo();
  const auto gpus = t.gpus_on(MachineId(2));
  ASSERT_EQ(gpus.size(), 8u);
  EXPECT_EQ(gpus.front(), GpuId(16));
  EXPECT_EQ(gpus.back(), GpuId(23));
  EXPECT_THROW(t.gpus_on(MachineId(8)), std::out_of_range);
}

TEST(TopologyTest, LeafAssignment) {
  const auto t = topo(8, 8, 4, 2);
  EXPECT_EQ(t.leaf_of(MachineId(0)), SwitchId(0));
  EXPECT_EQ(t.leaf_of(MachineId(3)), SwitchId(0));
  EXPECT_EQ(t.leaf_of(MachineId(4)), SwitchId(1));
  EXPECT_TRUE(t.is_leaf(SwitchId(0)));
  EXPECT_TRUE(t.is_leaf(SwitchId(1)));
  EXPECT_TRUE(t.is_spine(SwitchId(2)));
  EXPECT_TRUE(t.is_spine(SwitchId(3)));
  EXPECT_FALSE(t.is_spine(SwitchId(4)));
  EXPECT_FALSE(t.is_leaf(SwitchId(4)));
}

TEST(TopologyTest, IntraMachineRouteIsEmpty) {
  const auto t = topo();
  EXPECT_TRUE(t.route(GpuId(0), GpuId(7)).empty());
  EXPECT_TRUE(t.same_machine(GpuId(0), GpuId(7)));
}

TEST(TopologyTest, SameLeafRouteIsSingleHop) {
  const auto t = topo();
  // machines 0 and 1 are under leaf 0
  const auto path = t.route(GpuId(0), GpuId(8));
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], SwitchId(0));
}

TEST(TopologyTest, CrossLeafRouteIsThreeHops) {
  const auto t = topo();
  // machine 0 (leaf 0) -> machine 4 (leaf 1)
  const auto path = t.route(GpuId(0), GpuId(32));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], SwitchId(0));
  EXPECT_TRUE(t.is_spine(path[1]));
  EXPECT_EQ(path[2], SwitchId(1));
}

TEST(TopologyTest, EcmpIsDeterministicPerPair) {
  const auto t = topo();
  const auto p1 = t.route(GpuId(0), GpuId(32));
  const auto p2 = t.route(GpuId(0), GpuId(32));
  EXPECT_EQ(p1, p2);
}

TEST(TopologyTest, EcmpSpreadsAcrossSpines) {
  const auto t = topo(32, 8, 4, 4);
  std::set<SwitchId> spines_used;
  for (std::uint32_t g = 0; g < 8; ++g) {
    // cross-leaf pairs with varying endpoints
    const auto path = t.route(GpuId(g), GpuId(128 + g * 8));
    if (path.size() == 3) spines_used.insert(path[1]);
  }
  EXPECT_GT(spines_used.size(), 1u) << "ECMP never spread across spines";
}

TEST(TopologyTest, RouteValidatesGpuIds) {
  const auto t = topo();
  EXPECT_THROW(static_cast<void>(t.route(GpuId(0), GpuId(999))),
               std::out_of_range);
}

TEST(TopologyTest, SingleLeafClusterNeverUsesSpines) {
  const auto t = topo(4, 8, 4, 2);  // all machines under one leaf
  for (std::uint32_t a = 0; a < 4; ++a) {
    const auto path = t.route(GpuId(a * 8), GpuId(((a + 1) % 4) * 8));
    for (const SwitchId sw : path) EXPECT_TRUE(t.is_leaf(sw));
  }
}

// Property sweep: every cross-machine route starts at the source's leaf and
// ends at the destination's leaf.
class TopologyRouteSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(TopologyRouteSweep, RouteEndpointsMatchLeaves) {
  const auto [machines, spines] = GetParam();
  const auto t = topo(machines, 8, 4, spines);
  for (std::uint32_t a = 0; a < t.num_gpus(); a += 13) {
    for (std::uint32_t b = 0; b < t.num_gpus(); b += 17) {
      const GpuId src(a), dst(b);
      const auto path = t.route(src, dst);
      if (t.same_machine(src, dst)) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      const SwitchId leaf_src = t.leaf_of(t.machine_of(src));
      const SwitchId leaf_dst = t.leaf_of(t.machine_of(dst));
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), leaf_src);
      EXPECT_EQ(path.back(), leaf_dst);
      EXPECT_EQ(path.size(), leaf_src == leaf_dst ? 1u : 3u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyRouteSweep,
                         ::testing::Combine(::testing::Values(4u, 8u, 32u),
                                            ::testing::Values(1u, 2u, 8u)));

}  // namespace
}  // namespace llmprism
