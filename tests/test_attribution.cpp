// Root-cause attribution against the simulator's injected ground truth:
// for every AnomalyKind the top-ranked culprit must name the injected
// fault, with downstream PP/DP victims listed as victims, never origins.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "llmprism/common/rng.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/attribution.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/parallelism/config.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

/// One 64-GPU tp8/dp4/pp2 job on 8 machines — every DP ring and PP edge
/// crosses machines, so the whole dependency graph is flow-visible.
ClusterSimConfig one_job_config(std::uint64_t seed, std::uint32_t num_steps) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  cfg.seed = seed;
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 4, .pp = 2, .micro_batches = 4};
  job.num_steps = num_steps;
  cfg.jobs.push_back({job, {}});
  return cfg;
}

/// GPUs of the ranks sharing (dp_idx, pp_idx) — the TP siblings a
/// flow-level observer cannot tell apart from the true straggler.
std::vector<GpuId> stage_gpus(const JobTruth& truth,
                              const ParallelismConfig& par,
                              std::uint32_t dp_idx, std::uint32_t pp_idx) {
  const RankMap map(par);
  std::vector<GpuId> gpus;
  for (const RankId r : map.tp_group(dp_idx, pp_idx)) {
    gpus.push_back(truth.gpus[r.value()]);
  }
  std::sort(gpus.begin(), gpus.end());
  return gpus;
}

/// GPUs of the DP ring (tp_idx, pp_idx), ascending.
std::vector<GpuId> ring_gpus(const JobTruth& truth,
                             const ParallelismConfig& par,
                             std::uint32_t tp_idx, std::uint32_t pp_idx) {
  const RankMap map(par);
  std::vector<GpuId> gpus;
  for (const RankId r : map.dp_group(tp_idx, pp_idx)) {
    gpus.push_back(truth.gpus[r.value()]);
  }
  std::sort(gpus.begin(), gpus.end());
  return gpus;
}

TEST(AttributionTest, CleanTraceYieldsNoIncidents) {
  const auto sim = run_cluster_sim(one_job_config(3, 12));
  const Prism prism(sim.topology);
  const auto report = prism.analyze(sim.trace);
  EXPECT_TRUE(report.attribution.incidents.empty());
  EXPECT_EQ(report.telemetry.incidents, 0u);
  EXPECT_EQ(report.telemetry.alerts_explained, 0u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
}

TEST(AttributionTest, DisabledFlagSkipsAttribution) {
  auto cfg = one_job_config(5, 20);
  cfg.jobs[0].config.stragglers.push_back(
      {.rank = 11, .step_begin = 8, .step_end = 8, .slowdown = 2.5});
  const auto sim = run_cluster_sim(cfg);
  PrismConfig prism_config;
  prism_config.attribute = false;
  const Prism prism(sim.topology, prism_config);
  const auto report = prism.analyze(sim.trace);
  EXPECT_FALSE(report.jobs.front().step_alerts.empty());
  EXPECT_TRUE(report.attribution.incidents.empty());
  EXPECT_EQ(report.telemetry.incidents, 0u);
  EXPECT_EQ(report.telemetry.alerts_explained, 0u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
}

TEST(AttributionTest, StragglerBlamesInjectedRank) {
  auto cfg = one_job_config(7, 20);
  // rank 11 = (tp 3, dp 1, pp 0) under kTpDpPp.
  const StragglerSpec fault{
      .rank = 11, .step_begin = 8, .step_end = 8, .slowdown = 2.5};
  cfg.jobs[0].config.stragglers.push_back(fault);
  const auto sim = run_cluster_sim(cfg);
  ASSERT_EQ(sim.anomalies.size(), 1u);
  EXPECT_EQ(sim.anomalies[0].kind, AnomalyKind::kStraggler);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(sim.trace);
  ASSERT_EQ(report.attribution.incidents.size(), 1u);
  const AttributedIncident& incident = report.attribution.incidents[0];
  EXPECT_EQ(incident.job, JobId(0));
  EXPECT_LE(incident.step_begin, std::size_t{8});
  EXPECT_GE(incident.step_end, std::size_t{8});

  // The top-ranked culprit (and every co-culprit) must be a rank inside
  // the straggler's TP stage group — TP is intra-machine and therefore
  // flow-invisible, so the stage is the finest reachable localization.
  const auto siblings = stage_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, /*dp_idx=*/1,
      /*pp_idx=*/0);
  ASSERT_FALSE(incident.culprits.empty());
  const std::unordered_set<GpuId> sibling_set(siblings.begin(),
                                              siblings.end());
  for (const Culprit& c : incident.culprits) {
    EXPECT_EQ(c.kind, CulpritKind::kRank);
    EXPECT_TRUE(sibling_set.contains(c.gpu)) << "gpu " << c.gpu;
    EXPECT_GT(c.score, 0.0);
  }
  EXPECT_GT(incident.confidence, 0.5);

  // Downstream PP/DP ranks are victims, never origins.
  EXPECT_FALSE(incident.victims.empty());
  bool cross_stage_victim = false;
  for (const Victim& v : incident.victims) {
    EXPECT_EQ(v.kind, VictimKind::kStepAlert);
    EXPECT_FALSE(sibling_set.contains(v.gpu)) << "origin listed as victim";
    EXPECT_GE(v.hops, 1u) << "victim should be reachable from the origin";
    if (!sibling_set.contains(v.gpu)) cross_stage_victim = true;
  }
  EXPECT_TRUE(cross_stage_victim);

  EXPECT_EQ(report.telemetry.incidents, 1u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
  EXPECT_GT(report.telemetry.alerts_explained, 0u);
}

TEST(AttributionTest, SlowDpGroupBlamesInjectedRing) {
  auto cfg = one_job_config(9, 20);
  const SlowDpGroupSpec fault{.tp_idx = 2,
                              .pp_idx = 1,
                              .step_begin = 10,
                              .step_end = 11,
                              .slowdown = 3.0};
  cfg.jobs[0].config.slow_dp_groups.push_back(fault);
  const auto sim = run_cluster_sim(cfg);
  ASSERT_EQ(sim.anomalies.size(), 1u);
  EXPECT_EQ(sim.anomalies[0].kind, AnomalyKind::kSlowDpGroup);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(sim.trace);
  ASSERT_FALSE(report.attribution.incidents.empty());

  const AttributedIncident* ring_incident = nullptr;
  for (const AttributedIncident& incident : report.attribution.incidents) {
    if (incident.culprits.front().kind == CulpritKind::kDpGroup) {
      ring_incident = &incident;
      break;
    }
  }
  ASSERT_NE(ring_incident, nullptr) << "no DP-group-origin incident";
  EXPECT_EQ(ring_incident->job, JobId(0));
  EXPECT_LE(ring_incident->step_begin, std::size_t{11});
  EXPECT_GE(ring_incident->step_end, std::size_t{10});

  // Map the blamed component back to GPU ids: it must be exactly the
  // injected ring's membership.
  const auto& components =
      report.jobs.front().comm_types.dp_components;
  const std::size_t blamed = ring_incident->culprits.front().dp_group_index;
  ASSERT_LT(blamed, components.size());
  const auto truth_ring = ring_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, fault.tp_idx,
      fault.pp_idx);
  EXPECT_EQ(components[blamed], truth_ring);

  // Ring members' own step alerts are origin evidence; every victim is a
  // non-member stalled behind the slow collective.
  const std::unordered_set<GpuId> member_set(truth_ring.begin(),
                                             truth_ring.end());
  for (const Victim& v : ring_incident->victims) {
    if (v.kind != VictimKind::kStepAlert) continue;
    EXPECT_FALSE(member_set.contains(v.gpu)) << "origin listed as victim";
  }
  EXPECT_GE(ring_incident->evidence.group_alerts, 1u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
}

TEST(AttributionTest, DegradedSwitchBlamesInjectedSwitch) {
  // One machine per leaf: every DP ring crosses leaves, so per-switch
  // bandwidth has 4 leaves + 2 spines = 6 scorable series.
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 1, .num_spines = 2};
  cfg.seed = 13;
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  job.num_steps = 12;
  cfg.jobs.push_back({job, {}});
  cfg.switch_faults.push_back(
      {.switch_id = SwitchId(0), .window = {0, 2 * kHour},
       .bandwidth_factor = 0.3});
  const auto sim = run_cluster_sim(cfg);
  ASSERT_EQ(sim.anomalies.size(), 1u);
  EXPECT_EQ(sim.anomalies[0].kind, AnomalyKind::kDegradedSwitch);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(sim.trace);
  ASSERT_FALSE(report.switch_bandwidth_alerts.empty());

  const AttributedIncident* switch_incident = nullptr;
  for (const AttributedIncident& incident : report.attribution.incidents) {
    if (incident.culprits.front().kind == CulpritKind::kSwitch) {
      switch_incident = &incident;
      break;
    }
  }
  ASSERT_NE(switch_incident, nullptr) << "no switch-origin incident";
  EXPECT_EQ(switch_incident->culprits.front().switch_id,
            sim.anomalies[0].switch_id);
  // A degraded switch is a cluster-level fault, owned by no tenant.
  EXPECT_FALSE(switch_incident->job.valid());
  EXPECT_GT(switch_incident->culprits.front().score, 0.0);
  EXPECT_GE(switch_incident->evidence.switch_bandwidth_alerts, 1u);
}

TEST(AttributionTest, TwoSimultaneousFaultsSeparateIncidents) {
  auto cfg = one_job_config(21, 26);
  // rank 5 = (tp 5, dp 0, pp 0); ring (tp 1, pp 1) slowed later the same
  // window.
  const StragglerSpec straggler{
      .rank = 5, .step_begin = 7, .step_end = 7, .slowdown = 2.8};
  const SlowDpGroupSpec slow_group{.tp_idx = 1,
                                   .pp_idx = 1,
                                   .step_begin = 15,
                                   .step_end = 16,
                                   .slowdown = 3.0};
  cfg.jobs[0].config.stragglers.push_back(straggler);
  cfg.jobs[0].config.slow_dp_groups.push_back(slow_group);
  const auto sim = run_cluster_sim(cfg);
  ASSERT_EQ(sim.anomalies.size(), 2u);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(sim.trace);
  ASSERT_GE(report.attribution.incidents.size(), 2u);

  const auto siblings = stage_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, /*dp_idx=*/0,
      /*pp_idx=*/0);
  const std::unordered_set<GpuId> sibling_set(siblings.begin(),
                                              siblings.end());
  const auto truth_ring = ring_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, slow_group.tp_idx,
      slow_group.pp_idx);

  bool straggler_attributed = false;
  bool ring_attributed = false;
  for (const AttributedIncident& incident : report.attribution.incidents) {
    const Culprit& origin = incident.culprits.front();
    if (origin.kind == CulpritKind::kRank &&
        incident.step_begin <= straggler.step_begin &&
        incident.step_end >= straggler.step_begin &&
        sibling_set.contains(origin.gpu)) {
      straggler_attributed = true;
      for (const Victim& v : incident.victims) {
        EXPECT_FALSE(sibling_set.contains(v.gpu));
      }
    }
    if (origin.kind == CulpritKind::kDpGroup) {
      const auto& components =
          report.jobs.front().comm_types.dp_components;
      ASSERT_LT(origin.dp_group_index, components.size());
      if (components[origin.dp_group_index] == truth_ring &&
          incident.step_end >= slow_group.step_begin &&
          incident.step_begin <= slow_group.step_end) {
        ring_attributed = true;
      }
    }
  }
  EXPECT_TRUE(straggler_attributed)
      << "straggler fault not attributed to its stage";
  EXPECT_TRUE(ring_attributed) << "slow ring not attributed";
}

// --- direct unit coverage of the exposed building blocks ---------------

TEST(AttributionUnitTest, StepSelfTimesCountsComputeBeforeSends) {
  GpuTimeline t;
  t.gpu = GpuId(0);
  t.steps.push_back({.index = 0, .begin = 0, .end = 100 * kMillisecond});
  t.steps.push_back(
      {.index = 1, .begin = 100 * kMillisecond, .end = 200 * kMillisecond});
  const auto ev = [](TimelineEventKind k, TimeNs a, TimeNs b) {
    return TimelineEvent{.kind = k, .start = a, .end = b, .peer = GpuId(1)};
  };
  using K = TimelineEventKind;
  // step 0: compute then send (counted), recv then send (not counted)
  t.events.push_back(ev(K::kCompute, 0, 30 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 30 * kMillisecond, 35 * kMillisecond));
  t.events.push_back(ev(K::kPpRecv, 40 * kMillisecond, 45 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 45 * kMillisecond, 50 * kMillisecond));
  // step 1: two compute+send handoffs
  t.events.push_back(
      ev(K::kCompute, 100 * kMillisecond, 110 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 110 * kMillisecond, 112 * kMillisecond));
  t.events.push_back(
      ev(K::kCompute, 120 * kMillisecond, 145 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 145 * kMillisecond, 147 * kMillisecond));

  const auto self = Attributor::step_self_times(t);
  ASSERT_EQ(self.size(), 2u);
  EXPECT_NEAR(self[0], 0.030, 1e-9);
  EXPECT_NEAR(self[1], 0.035, 1e-9);
}

FlowRecord hop_flow(std::uint32_t src, std::uint32_t dst, TimeNs at,
                    std::initializer_list<std::uint32_t> switches) {
  FlowRecord f;
  f.start_time = at;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = 1000;
  f.duration = kMillisecond;
  for (const std::uint32_t s : switches) f.switches.push_back(SwitchId(s));
  return f;
}

std::vector<SwitchId> switch_ids(std::initializer_list<std::uint32_t> ids) {
  std::vector<SwitchId> out;
  for (const std::uint32_t id : ids) out.emplace_back(id);
  return out;
}

TEST(AttributionUnitTest, GroupSwitchSetsUseOnlyIntraComponentFlows) {
  // Components {0,1} and {2,3}; a PP-like flow 1->2 must not contribute.
  const std::vector<std::vector<GpuId>> components = {
      {GpuId(0), GpuId(1)}, {GpuId(2), GpuId(3)}};
  FlowTrace trace;
  trace.add(hop_flow(0, 1, 0, {0, 2, 1}));
  trace.add(hop_flow(1, 2, 10, {7}));      // cross-component: ignored
  trace.add(hop_flow(3, 2, 20, {1, 3}));
  trace.add(hop_flow(1, 0, 30, {0}));

  const FlowColumns columns(trace);
  const auto sets = Attributor::group_switch_sets(columns.view(), components);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], switch_ids({0, 1, 2}));
  EXPECT_EQ(sets[1], switch_ids({1, 3}));
}

TEST(AttributionUnitTest, GroupSwitchSetsEdgeCases) {
  // Components {0,1}, {2,3} and {4,5}; GPU 9 is in none of them.
  const std::vector<std::vector<GpuId>> components = {
      {GpuId(0), GpuId(1)}, {GpuId(2), GpuId(3)}, {GpuId(4), GpuId(5)}};
  FlowTrace trace;
  trace.add(hop_flow(0, 1, 0, {5, 5, 5}));  // repeats a switch
  trace.add(hop_flow(2, 3, 10, {}));        // no hops
  trace.add(hop_flow(9, 0, 20, {7}));       // src in no component
  trace.add(hop_flow(1, 9, 30, {8}));       // dst in no component
  trace.add(hop_flow(4, 5, 40, {2, 63}));   // the highest switch id
  trace.add(hop_flow(1, 0, 50, {5, 4}));

  const FlowColumns columns(trace);
  const auto sets = Attributor::group_switch_sets(columns.view(), components);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], switch_ids({4, 5}));
  EXPECT_TRUE(sets[1].empty());
  EXPECT_EQ(sets[2], switch_ids({2, 63}));

  // A slice keeps aliasing its parent's hop column; only the slice's own
  // hops count, so the sets shrink to what rows [0, 2) traverse.
  const auto sliced =
      Attributor::group_switch_sets(columns.view().slice(0, 2), components);
  ASSERT_EQ(sliced.size(), 3u);
  EXPECT_EQ(sliced[0], switch_ids({5}));
  EXPECT_TRUE(sliced[1].empty());
  EXPECT_TRUE(sliced[2].empty());

  // No hops at all (and no components) yields one empty set per component.
  EXPECT_EQ(Attributor::group_switch_sets(FlowView{}, components).size(), 3u);
  EXPECT_TRUE(Attributor::group_switch_sets(columns.view(), {}).empty());
}

// Per-chunk membership tables OR-ed in chunk order must give the serial
// sets: a job spanning several row chunks, a switch only the last chunk's
// flows cross, a component whose flows all sit in the first chunk, and
// endpoints in no component.
TEST(AttributionUnitTest, GroupSwitchSetsChunkedMatchesSerial) {
  std::vector<std::vector<GpuId>> components(8);
  for (std::uint32_t g = 0; g < 32; ++g) components[g / 4].emplace_back(g);
  Rng rng(21);
  FlowTrace trace;
  const std::size_t n = 3 * kScatterChunkRows + 77;
  for (std::size_t i = 0; i < n; ++i) {
    auto comp = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
    if (i < 100) comp = 7;     // component 7 only in the first chunk
    const bool tail = i + 10 >= n;
    if (tail) comp = 3;        // the only flows that cross switch 99
    const auto src =
        4 * comp + static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    auto dst = 4 * comp + static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    if (!tail && rng.bernoulli(0.1)) {
      dst = static_cast<std::uint32_t>(rng.uniform_int(0, 35));
    }
    FlowRecord f = hop_flow(src, dst, static_cast<TimeNs>(i), {});
    const auto hops = rng.uniform_int(0, 3);
    for (std::int64_t h = 0; h < hops; ++h) {
      f.switches.push_back(
          SwitchId(static_cast<std::uint32_t>(rng.uniform_int(0, 40))));
    }
    if (tail) f.switches.push_back(SwitchId(99));
    trace.add(f);
  }
  const FlowColumns columns(trace);
  ThreadPool pool(3);
  for (const bool sliced : {false, true}) {
    SCOPED_TRACE(sliced ? "slice" : "whole view");
    const FlowView view =
        sliced ? columns.view().slice(50, n - 3) : columns.view();
    // Brute-force reference: every intra-component flow's switches.
    std::vector<std::set<std::uint32_t>> want(components.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      const std::uint32_t a = view.src[i] / 4;
      const std::uint32_t b = view.dst[i] / 4;
      if (a != b || a >= components.size()) continue;
      for (const std::uint32_t sw : view.switches(i)) want[a].insert(sw);
    }
    const auto serial = Attributor::group_switch_sets(view, components);
    const auto pooled = Attributor::group_switch_sets(view, components, &pool);
    ASSERT_EQ(serial.size(), components.size());
    EXPECT_EQ(pooled, serial);
    for (std::size_t c = 0; c < components.size(); ++c) {
      SCOPED_TRACE("component " + std::to_string(c));
      std::vector<SwitchId> expected;
      for (const std::uint32_t sw : want[c]) expected.emplace_back(sw);
      EXPECT_EQ(serial[c], expected);
    }
    EXPECT_EQ(serial[3].back(), SwitchId(99));
    EXPECT_FALSE(serial[7].empty());
  }
}

}  // namespace
}  // namespace llmprism
