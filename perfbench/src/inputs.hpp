// Seeded input generators for the three workloads. Everything here is
// benchmark-side: the simulator plays the cluster, and the program under
// test only ever sees the flows these functions return.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llmprism/simulator/cluster_sim.hpp"

namespace perfbench {

/// One injected fault, in the terms the attribution scorer needs: the
/// simulated job it hit (index into ClusterSimResult::jobs, unused for
/// switch faults) and the fault spec itself.
struct InjectedFault {
  enum class Kind { kStraggler, kSlowRing, kSwitch } kind = Kind::kStraggler;
  std::size_t job = 0;
  llmprism::ParallelismConfig parallelism;
  llmprism::StragglerSpec straggler;
  llmprism::SlowDpGroupSpec ring;
  llmprism::SwitchId switch_id;
};

/// One simulated analysis window with its ground truth.
struct SimWindow {
  llmprism::ClusterSimResult sim;
  std::vector<InjectedFault> faults;
};

/// bigjob-window input `index` of a seed: one 256-GPU tp8/dp8/pp4 job on
/// 32 machines with Table-I-style collection noise, one straggler, one slow
/// DP ring and one degraded switch.
[[nodiscard]] SimWindow bigjob_window(std::uint64_t seed, std::size_t index);

/// fleet-window input `index` of a seed: a 64-machine cluster of 24 small
/// tenants of mixed shapes (tp8/dp2/pp1, tp8/dp2/pp2, tp4/dp2/pp2 and
/// PP-only dp=1 jobs) with staggered starts and noise; three tenants carry
/// a straggler and three a slow ring.
[[nodiscard]] SimWindow fleet_window(std::uint64_t seed, std::size_t index);

/// One tenant of a stream feed with its truth (GPU ids are cluster-wide).
/// Truth and faults cover only the part of the run inside the feed.
struct StreamTenant {
  llmprism::JobTruth truth;
  llmprism::ParallelismConfig parallelism;
  std::vector<llmprism::StragglerSpec> stragglers;
  std::vector<llmprism::SlowDpGroupSpec> rings;
  llmprism::TimeNs end = 0;  ///< end of its epoch (where its flows are cut)
};

/// fleet-stream feed for one collector stream: consecutive 11 s epochs of
/// six small tenants with churn (each epoch's tenants end and new ones
/// start on other machines of the stream's half of the cluster), each DP
/// tenant with a straggler or a slow ring, cut into time-ordered chunks of
/// `chunk` simulated time each.
struct StreamFeed {
  std::vector<llmprism::FlowTrace> chunks;
  std::vector<StreamTenant> tenants;
  std::uint64_t flows = 0;
};
[[nodiscard]] StreamFeed make_stream_feed(std::uint64_t seed,
                                          std::uint32_t first_machine,
                                          llmprism::TimeNs origin,
                                          llmprism::DurationNs length,
                                          llmprism::DurationNs chunk);

/// Topologies of the workloads (the stream uses the fleet cluster).
[[nodiscard]] llmprism::TopologyConfig bigjob_topology();
[[nodiscard]] llmprism::TopologyConfig fleet_topology();

}  // namespace perfbench
