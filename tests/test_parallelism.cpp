// Unit tests for parallelism configuration, rank mapping, groups, placement
// and ring channels.
#include "llmprism/parallelism/placement.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

namespace llmprism {
namespace {

ParallelismConfig par(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                      RankOrder order = RankOrder::kTpDpPp) {
  ParallelismConfig c;
  c.tp = tp;
  c.dp = dp;
  c.pp = pp;
  c.order = order;
  return c;
}

TEST(ParallelismConfigTest, ValidatesAxes) {
  EXPECT_THROW(RankMap(par(0, 1, 1)), std::invalid_argument);
  EXPECT_THROW(RankMap(par(1, 0, 1)), std::invalid_argument);
  EXPECT_THROW(RankMap(par(1, 1, 0)), std::invalid_argument);
  ParallelismConfig c = par(1, 1, 1);
  c.micro_batches = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(RankMapTest, WorldSize) {
  EXPECT_EQ(RankMap(par(2, 3, 4)).world_size(), 24u);
}

TEST(RankMapTest, CoordRoundTrip) {
  for (const RankOrder order : {RankOrder::kTpDpPp, RankOrder::kTpPpDp}) {
    const RankMap rm(par(2, 3, 4, order));
    for (std::uint32_t r = 0; r < rm.world_size(); ++r) {
      const RankCoord c = rm.coord_of(RankId(r));
      EXPECT_EQ(rm.rank_of(c), RankId(r));
    }
  }
}

TEST(RankMapTest, MegatronOrderTpFastest) {
  const RankMap rm(par(2, 2, 2, RankOrder::kTpDpPp));
  // rank = pp*(dp*tp) + dp*tp + tp
  EXPECT_EQ(rm.coord_of(RankId(0)), (RankCoord{0, 0, 0}));
  EXPECT_EQ(rm.coord_of(RankId(1)), (RankCoord{1, 0, 0}));
  EXPECT_EQ(rm.coord_of(RankId(2)), (RankCoord{0, 1, 0}));
  EXPECT_EQ(rm.coord_of(RankId(4)), (RankCoord{0, 0, 1}));
}

TEST(RankMapTest, TpPpDpOrder) {
  const RankMap rm(par(2, 2, 2, RankOrder::kTpPpDp));
  EXPECT_EQ(rm.coord_of(RankId(1)), (RankCoord{1, 0, 0}));
  EXPECT_EQ(rm.coord_of(RankId(2)), (RankCoord{0, 0, 1}));  // pp second
  EXPECT_EQ(rm.coord_of(RankId(4)), (RankCoord{0, 1, 0}));  // dp outermost
}

TEST(RankMapTest, OutOfRangeThrows) {
  const RankMap rm(par(2, 2, 2));
  EXPECT_THROW(static_cast<void>(rm.coord_of(RankId(8))), std::out_of_range);
  EXPECT_THROW(static_cast<void>(rm.rank_of({2, 0, 0})), std::out_of_range);
  EXPECT_THROW(static_cast<void>(rm.coord_of(RankId())), std::out_of_range);
}

TEST(RankMapTest, GroupsPartitionTheWorld) {
  const RankMap rm(par(2, 4, 3));
  // Every rank appears in exactly one DP group and one PP group.
  for (const auto& groups : {rm.all_dp_groups(), rm.all_pp_groups()}) {
    std::set<RankId> seen;
    for (const auto& g : groups) {
      for (const RankId r : g) {
        EXPECT_TRUE(seen.insert(r).second) << "rank in two groups";
      }
    }
    EXPECT_EQ(seen.size(), rm.world_size());
  }
  EXPECT_EQ(rm.all_dp_groups().size(), 6u);  // tp*pp
  EXPECT_EQ(rm.all_pp_groups().size(), 8u);  // tp*dp
}

TEST(RankMapTest, GroupMembersShareTheRightCoords) {
  const RankMap rm(par(2, 4, 3));
  const auto dp_group = rm.dp_group(1, 2);
  ASSERT_EQ(dp_group.size(), 4u);
  for (const RankId r : dp_group) {
    const RankCoord c = rm.coord_of(r);
    EXPECT_EQ(c.tp_idx, 1u);
    EXPECT_EQ(c.pp_idx, 2u);
  }
  const auto pp_group = rm.pp_group(0, 3);
  ASSERT_EQ(pp_group.size(), 3u);
  for (std::uint32_t s = 0; s < pp_group.size(); ++s) {
    EXPECT_EQ(rm.coord_of(pp_group[s]).pp_idx, s);  // stage order
  }
  const auto tp_group = rm.tp_group(2, 1);
  ASSERT_EQ(tp_group.size(), 2u);
  // Megatron order: TP group ranks are consecutive.
  EXPECT_EQ(tp_group[1].value(), tp_group[0].value() + 1);
}

// ---------------------------------------------------------------------------
// Placement

ClusterTopology topo8() {
  return ClusterTopology::build({.num_machines = 8, .gpus_per_machine = 8,
                                 .machines_per_leaf = 4, .num_spines = 2});
}

std::vector<MachineId> machines(std::uint32_t from, std::uint32_t n) {
  std::vector<MachineId> out;
  for (std::uint32_t i = 0; i < n; ++i) out.emplace_back(from + i);
  return out;
}

TEST(PlacementTest, MapsRanksOntoMachinesInOrder) {
  const auto t = topo8();
  const RankMap rm(par(8, 2, 2));  // 32 ranks
  const JobPlacement p(rm, machines(2, 4), t);
  EXPECT_EQ(p.gpu_of(RankId(0)), GpuId(16));   // machine 2, slot 0
  EXPECT_EQ(p.gpu_of(RankId(8)), GpuId(24));   // machine 3
  EXPECT_EQ(p.gpu_of(RankId(31)), GpuId(47));  // machine 5, slot 7
  EXPECT_EQ(p.rank_of(GpuId(16)), RankId(0));
  EXPECT_FALSE(p.rank_of(GpuId(0)).valid());   // not in the job
  EXPECT_EQ(p.all_gpus().size(), 32u);
}

TEST(PlacementTest, RejectsWrongCapacity) {
  const auto t = topo8();
  const RankMap rm(par(8, 2, 2));  // needs 4 machines
  EXPECT_THROW(JobPlacement(rm, machines(0, 3), t), std::invalid_argument);
  EXPECT_THROW(JobPlacement(rm, machines(0, 5), t), std::invalid_argument);
}

TEST(PlacementTest, RejectsDuplicateMachines) {
  const auto t = topo8();
  const RankMap rm(par(8, 2, 1));  // 2 machines
  EXPECT_THROW(JobPlacement(rm, {MachineId(0), MachineId(0)}, t),
               std::invalid_argument);
}

TEST(PlacementTest, TpIntraNodeInvariantEnforced) {
  const auto t = topo8();
  // tp=8 with kTpPpDp and pp=2: tp groups still consecutive -> fine.
  // But tp=16 > gpus_per_machine must throw.
  const RankMap rm(par(16, 1, 1));
  EXPECT_THROW(JobPlacement(rm, machines(0, 2), t), std::invalid_argument);
  // ...unless the check is disabled.
  EXPECT_NO_THROW(JobPlacement(rm, machines(0, 2), t, false));
}

TEST(PlacementTest, TpGroupsLandOnOneMachine) {
  const auto t = topo8();
  for (const std::uint32_t tp : {1u, 2u, 4u, 8u}) {
    const RankMap rm(par(tp, 16 / tp, 2));  // 32 ranks
    const JobPlacement p(rm, machines(0, 4), t);
    for (std::uint32_t d = 0; d < 16 / tp; ++d) {
      for (std::uint32_t s = 0; s < 2; ++s) {
        const auto group = rm.tp_group(d, s);
        const MachineId m = t.machine_of(p.gpu_of(group[0]));
        for (const RankId r : group) {
          EXPECT_EQ(t.machine_of(p.gpu_of(r)), m);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ring channels

std::vector<RankId> ranks(std::uint32_t n) {
  std::vector<RankId> out;
  for (std::uint32_t i = 0; i < n; ++i) out.emplace_back(i * 10);  // sparse ids
  return out;
}

TEST(RingEdgesTest, TrivialGroups) {
  EXPECT_TRUE(ring_edges(ranks(0), 0).empty());
  EXPECT_TRUE(ring_edges(ranks(1), 0).empty());
  const auto e2 = ring_edges(ranks(2), 0);
  ASSERT_EQ(e2.size(), 1u);
  const auto e2c1 = ring_edges(ranks(2), 1);
  EXPECT_EQ(e2, e2c1);  // only one possible edge
}

TEST(RingEdgesTest, Channel0IsTheNaturalRing) {
  const auto edges = ring_edges(ranks(5), 0);
  ASSERT_EQ(edges.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(edges[i].first, RankId(static_cast<std::uint32_t>(i * 10)));
    EXPECT_EQ(edges[i].second,
              RankId(static_cast<std::uint32_t>(((i + 1) % 5) * 10)));
  }
}

TEST(RingEdgesTest, RingIsAHamiltonianCycle) {
  for (const std::uint32_t n : {3u, 4u, 5u, 8u, 16u}) {
    for (const std::uint32_t channel : {0u, 1u}) {
      const auto edges = ring_edges(ranks(n), channel);
      ASSERT_EQ(edges.size(), n);
      // every node has out-degree 1 and in-degree 1
      std::set<RankId> outs, ins;
      for (const auto& [a, b] : edges) {
        EXPECT_TRUE(outs.insert(a).second);
        EXPECT_TRUE(ins.insert(b).second);
        EXPECT_NE(a, b);
      }
      EXPECT_EQ(outs.size(), n);
      EXPECT_EQ(ins.size(), n);
    }
  }
}

TEST(RingEdgesTest, ChannelsUseDifferentStrides) {
  const auto c0 = ring_edges(ranks(8), 0);
  const auto c1 = ring_edges(ranks(8), 1);
  EXPECT_NE(c0, c1);
  // n=8: coprime strides 1 and 3 -> undirected edge sets are disjoint
  std::set<GpuPair> s0, s1;
  for (const auto& [a, b] : c0) {
    s0.insert(GpuPair(GpuId(a.value()), GpuId(b.value())));
  }
  for (const auto& [a, b] : c1) {
    s1.insert(GpuPair(GpuId(a.value()), GpuId(b.value())));
  }
  for (const auto& e : s1) EXPECT_FALSE(s0.count(e));
}

}  // namespace
}  // namespace llmprism
