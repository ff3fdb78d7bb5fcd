// Unit tests for per-GPU training-timeline reconstruction.
#include "llmprism/core/timeline.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "llmprism/baseline/eval.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

// Synthetic single-GPU scenario: GPU 0 does PP with GPU 8 and DP with GPU 16.
struct SyntheticScenario {
  FlowTrace trace;
  std::unordered_map<GpuPair, CommType> types;
  int steps;
  TimeNs step_period;
};

SyntheticScenario make_scenario(int steps = 6,
                                TimeNs step_period = 2 * kSecond) {
  SyntheticScenario s;
  s.steps = steps;
  s.step_period = step_period;
  s.types.emplace(GpuPair(GpuId(0), GpuId(8)), CommType::kPP);
  s.types.emplace(GpuPair(GpuId(0), GpuId(16)), CommType::kDP);
  for (int k = 0; k < steps; ++k) {
    const TimeNs base = k * step_period;
    // 4 PP sends spread over the "compute" phase
    for (int m = 0; m < 4; ++m) {
      FlowRecord f;
      f.start_time = base + 100 * kMillisecond * (m + 1);
      f.src = GpuId(0);
      f.dst = GpuId(8);
      f.bytes = 1 << 20;
      f.duration = kMillisecond;
      s.trace.add(f);
    }
    // DP burst at the end of the step: 12 flows, 2 ms apart
    for (int i = 0; i < 12; ++i) {
      FlowRecord f;
      f.start_time = base + step_period - 100 * kMillisecond +
                     i * 2 * kMillisecond;
      f.src = i % 2 == 0 ? GpuId(0) : GpuId(16);
      f.dst = i % 2 == 0 ? GpuId(16) : GpuId(0);
      f.bytes = (2 + i % 3) << 20;
      f.duration = kMillisecond;
      s.trace.add(f);
    }
  }
  s.trace.sort();
  return s;
}

TEST(TimelineReconstructorTest, FindsEveryStep) {
  const auto s = make_scenario();
  const TimelineReconstructor rec;
  const auto timeline = rec.reconstruct(GpuId(0), s.trace, s.types);
  EXPECT_EQ(timeline.gpu, GpuId(0));
  ASSERT_EQ(timeline.steps.size(), static_cast<std::size_t>(s.steps));
  for (std::size_t k = 1; k < timeline.steps.size(); ++k) {
    EXPECT_NEAR(to_seconds(timeline.steps[k].duration()),
                to_seconds(s.step_period), 0.15);
    // steps are contiguous: begin == previous end
    EXPECT_EQ(timeline.steps[k].begin, timeline.steps[k - 1].end);
  }
}

TEST(TimelineReconstructorTest, StepEndIsLastDpFlowEnd) {
  const auto s = make_scenario();
  const auto timeline =
      TimelineReconstructor{}.reconstruct(GpuId(0), s.trace, s.types);
  for (const ReconstructedStep& step : timeline.steps) {
    EXPECT_EQ(step.end, step.dp_end);
    EXPECT_GT(step.dp_end, step.dp_begin);
    // The DP span is the 22 ms burst, not the whole step.
    EXPECT_LT(to_seconds(step.dp_duration()), 0.1);
  }
}

TEST(TimelineReconstructorTest, EventKindsAreCorrect) {
  const auto s = make_scenario(3);
  const auto timeline =
      TimelineReconstructor{}.reconstruct(GpuId(0), s.trace, s.types);
  std::size_t pp_send = 0, dp = 0, compute = 0, pp_recv = 0;
  for (const TimelineEvent& e : timeline.events) {
    EXPECT_GE(e.end, e.start);
    switch (e.kind) {
      case TimelineEventKind::kPpSend: ++pp_send; break;
      case TimelineEventKind::kPpRecv: ++pp_recv; break;
      case TimelineEventKind::kDp: ++dp; break;
      case TimelineEventKind::kCompute: ++compute; break;
    }
  }
  EXPECT_EQ(pp_send, 12u);  // 4 per step, GPU 0 is always src
  EXPECT_EQ(pp_recv, 0u);
  EXPECT_EQ(dp, 36u);       // 12 per step (both directions count)
  EXPECT_GT(compute, 0u);   // gaps between comm events
}

TEST(TimelineReconstructorTest, PeerPerspectiveSwapsSendRecv) {
  const auto s = make_scenario(3);
  const auto timeline =
      TimelineReconstructor{}.reconstruct(GpuId(8), s.trace, s.types);
  for (const TimelineEvent& e : timeline.events) {
    if (e.kind == TimelineEventKind::kPpRecv) {
      EXPECT_EQ(e.peer, GpuId(0));
    }
    EXPECT_NE(e.kind, TimelineEventKind::kPpSend);  // GPU 8 never sends
  }
  // GPU 8 has no DP flows -> no steps reconstructed.
  EXPECT_TRUE(timeline.steps.empty());
}

TEST(TimelineReconstructorTest, ComputeGapsRespectMinimum) {
  const auto s = make_scenario(3);
  TimelineConfig cfg;
  cfg.min_compute_gap = 10 * kSecond;  // absurdly high: no gap qualifies
  const auto timeline =
      TimelineReconstructor(cfg).reconstruct(GpuId(0), s.trace, s.types);
  for (const TimelineEvent& e : timeline.events) {
    EXPECT_NE(e.kind, TimelineEventKind::kCompute);
  }
}

TEST(TimelineReconstructorTest, UnknownPairDefaultsToPp) {
  FlowTrace trace;
  FlowRecord f;
  f.start_time = 0;
  f.src = GpuId(0);
  f.dst = GpuId(8);
  f.bytes = 1;
  f.duration = 1;
  trace.add(f);
  const auto timeline =
      TimelineReconstructor{}.reconstruct(GpuId(0), trace, {});
  ASSERT_EQ(timeline.events.size(), 1u);
  EXPECT_EQ(timeline.events[0].kind, TimelineEventKind::kPpSend);
}

TEST(TimelineReconstructorTest, EmptyTraceEmptyTimeline) {
  const auto timeline =
      TimelineReconstructor{}.reconstruct(GpuId(0), FlowTrace{}, {});
  EXPECT_TRUE(timeline.events.empty());
  EXPECT_TRUE(timeline.steps.empty());
}

TEST(TimelineReconstructorTest, ReconstructAllCoversAllEndpoints) {
  const auto s = make_scenario(4);
  const auto timelines =
      TimelineReconstructor{}.reconstruct_all(s.trace, s.types);
  ASSERT_EQ(timelines.size(), 3u);  // GPUs 0, 8, 16
  EXPECT_EQ(timelines[0].gpu, GpuId(0));
  EXPECT_EQ(timelines[1].gpu, GpuId(8));
  EXPECT_EQ(timelines[2].gpu, GpuId(16));
  // reconstruct_all must agree with per-GPU reconstruct
  const auto single =
      TimelineReconstructor{}.reconstruct(GpuId(0), s.trace, s.types);
  ASSERT_EQ(timelines[0].events.size(), single.events.size());
  ASSERT_EQ(timelines[0].steps.size(), single.steps.size());
  for (std::size_t k = 0; k < single.steps.size(); ++k) {
    EXPECT_EQ(timelines[0].steps[k].end, single.steps[k].end);
  }
}

// ---------------------------------------------------------------------------
// Simulator-driven: reconstruction error across shapes (the §V-C metric).

struct TimelineSweepParam {
  std::uint32_t tp, dp, pp;
  bool zero_overlap;
};

class TimelineSweep : public ::testing::TestWithParam<TimelineSweepParam> {};

TEST_P(TimelineSweep, ErrorWithinPaperBound) {
  const auto p = GetParam();
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism.tp = p.tp;
  job.parallelism.dp = p.dp;
  job.parallelism.pp = p.pp;
  job.num_steps = 12;
  job.zero_overlap = p.zero_overlap;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);

  const auto comm = CommTypeIdentifier{}.identify(sim.trace);
  const auto timelines =
      TimelineReconstructor{}.reconstruct_all(sim.trace, comm.types());
  const auto score = score_timelines(std::span(timelines), sim.jobs[0]);
  EXPECT_GT(score.ranks_scored, 0u);
  EXPECT_GT(score.matched_fraction(), 0.9);
  EXPECT_LT(score.mean_duration_error, 0.003);  // paper: < 0.3%
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TimelineSweep,
    ::testing::Values(TimelineSweepParam{8, 2, 2, false},
                      TimelineSweepParam{8, 4, 1, false},
                      TimelineSweepParam{4, 8, 1, false},
                      TimelineSweepParam{8, 2, 2, true},
                      TimelineSweepParam{2, 8, 2, false}));

TEST(TimelineLimitationTest, IntraMachineDpIsInvisible) {
  // tp=2, dp=4, pp=4 on 8-GPU machines puts every DP group inside one
  // machine: its collectives never cross a switch, so no timeline can be
  // reconstructed — pinned as a documented observability limit of any
  // switch-level monitor.
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 2, .dp = 4, .pp = 4, .micro_batches = 4};
  job.num_steps = 8;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);
  const auto comm = CommTypeIdentifier{}.identify(sim.trace);
  for (const auto& p : comm.pairs) {
    EXPECT_EQ(p.type, CommType::kPP);  // only PP traffic is visible
  }
  const auto timelines =
      TimelineReconstructor{}.reconstruct_all(sim.trace, comm.types());
  for (const auto& t : timelines) {
    EXPECT_TRUE(t.steps.empty());
  }
}

// ---------------------------------------------------------------------------
// Chunked event gather: a job spanning several row chunks must get the same
// timelines from the pool as from the one-chunk serial gather, cold and
// with a carried tail across two windows.

void expect_same_timelines(const std::vector<GpuTimeline>& a,
                           const std::vector<GpuTimeline>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    SCOPED_TRACE("timeline " + std::to_string(t));
    EXPECT_EQ(a[t].gpu, b[t].gpu);
    ASSERT_EQ(a[t].events.size(), b[t].events.size());
    for (std::size_t e = 0; e < a[t].events.size(); ++e) {
      ASSERT_EQ(a[t].events[e].kind, b[t].events[e].kind) << "event " << e;
      ASSERT_EQ(a[t].events[e].start, b[t].events[e].start) << "event " << e;
      ASSERT_EQ(a[t].events[e].end, b[t].events[e].end) << "event " << e;
      ASSERT_EQ(a[t].events[e].peer, b[t].events[e].peer) << "event " << e;
    }
    ASSERT_EQ(a[t].steps.size(), b[t].steps.size());
    for (std::size_t k = 0; k < a[t].steps.size(); ++k) {
      EXPECT_EQ(a[t].steps[k].index, b[t].steps[k].index);
      EXPECT_EQ(a[t].steps[k].begin, b[t].steps[k].begin);
      EXPECT_EQ(a[t].steps[k].end, b[t].steps[k].end);
      EXPECT_EQ(a[t].steps[k].dp_begin, b[t].steps[k].dp_begin);
      EXPECT_EQ(a[t].steps[k].dp_end, b[t].steps[k].dp_end);
    }
  }
}

TEST(TimelineReconstructorTest, ChunkedGatherMatchesSerialGather) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 4, .pp = 4, .micro_batches = 4};
  job.num_steps = 12;
  cfg.jobs.push_back({job, {}});
  auto sim = run_cluster_sim(cfg);
  sim.trace.sort();
  const FlowColumns columns(sim.trace);
  const FlowView view = columns.view();
  ASSERT_GT(view.size(), 3 * kScatterChunkRows);
  std::vector<CommType> types;
  const PairIndex index(view);
  (void)CommTypeIdentifier{}.identify(view, index, &types);

  const TimelineReconstructor reconstructor;
  ThreadPool pool(3);
  SegmenterStats serial_stats;
  SegmenterStats pooled_stats;
  const auto serial =
      reconstructor.reconstruct_all(view, types, &serial_stats, {}, nullptr);
  const auto pooled =
      reconstructor.reconstruct_all(view, types, &pooled_stats, {}, &pool);
  ASSERT_GE(serial.size(), 100u);
  expect_same_timelines(serial, pooled);
  EXPECT_EQ(serial_stats.observations, pooled_stats.observations);
  EXPECT_EQ(serial_stats.boundaries, pooled_stats.boundaries);

  // Two windows with carry: the first holds its trailing burst back, the
  // second (the flush) takes it in.
  const TimeNs mid = view.start_ns[view.size() / 2];
  const std::size_t cut = view.lower_bound_start(mid);
  const TimeNs end = view.time_span().end;
  TimelineCarry serial_carry;
  TimelineCarry pooled_carry;
  for (const bool first : {true, false}) {
    SCOPED_TRACE(first ? "window 1" : "window 2");
    const std::size_t lo = first ? 0 : cut;
    const std::size_t hi = first ? cut : view.size();
    const FlowView window = view.slice(lo, hi);
    const std::span<const CommType> window_types =
        std::span<const CommType>(types).subspan(lo, hi - lo);
    TimelineCarryContext ctx{.carry = &serial_carry,
                             .window_end = first ? mid : end,
                             .hold_tail = first,
                             .boundary_hold = 50 * kMillisecond};
    const auto a =
        reconstructor.reconstruct_all(window, window_types, nullptr, ctx);
    ctx.carry = &pooled_carry;
    const auto b = reconstructor.reconstruct_all(window, window_types,
                                                 nullptr, ctx, &pool);
    expect_same_timelines(a, b);
    EXPECT_EQ(serial_carry.steps_held, pooled_carry.steps_held);
    EXPECT_EQ(serial_carry.steps_carried_in, pooled_carry.steps_carried_in);
    EXPECT_GT(first ? serial_carry.steps_held : serial_carry.steps_carried_in,
              0u);
  }
}

}  // namespace
}  // namespace llmprism
