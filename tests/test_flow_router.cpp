// Unit tests for the dense GPU->job flow routing table, including the
// dst-fallback path that the end-to-end pipeline cannot reach (the
// internal recognizer attributes every flow endpoint, so these tests
// hand-build half-recognized jobs).
#include "llmprism/core/flow_router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "llmprism/common/rng.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/flow/trace.hpp"

namespace llmprism {
namespace {

FlowRecord flow_at(TimeNs at, std::uint32_t src, std::uint32_t dst,
                   std::initializer_list<std::uint32_t> hops = {}) {
  FlowRecord f;
  f.start_time = at;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = 1 << 20;
  f.duration = 100;
  for (const std::uint32_t sw : hops) f.switches.push_back(SwitchId(sw));
  return f;
}

RecognizedJob job_with_gpus(std::vector<std::uint32_t> gpus) {
  RecognizedJob job;
  for (const std::uint32_t g : gpus) job.gpus.push_back(GpuId(g));
  return job;
}

FlowRouter::Result route(const FlowRouter& router, const FlowTrace& trace) {
  return router.route(FlowColumns(trace).view());
}

TEST(FlowRouterTest, RoutesBySrcToTheOwningJob) {
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1}),
                                        job_with_gpus({4, 5})};
  const FlowRouter router(jobs);
  EXPECT_EQ(router.num_jobs(), 2u);
  EXPECT_EQ(router.job_of(GpuId(0)), 0u);
  EXPECT_EQ(router.job_of(GpuId(5)), 1u);
  EXPECT_EQ(router.job_of(GpuId(3)), FlowRouter::kUnattributed);
  EXPECT_EQ(router.job_of(GpuId(99)), FlowRouter::kUnattributed);

  FlowTrace trace;
  trace.add(flow_at(10, 0, 1));
  trace.add(flow_at(20, 5, 4));
  trace.add(flow_at(30, 1, 0));
  const auto result = route(router, trace);
  EXPECT_EQ(result.flows_routed, 3u);
  EXPECT_EQ(result.flows_routed_via_dst, 0u);
  EXPECT_EQ(result.flows_unattributed, 0u);
  ASSERT_EQ(result.job_columns.size(), 2u);
  EXPECT_EQ(result.job_columns[0].size(), 2u);
  EXPECT_EQ(result.job_columns[1].size(), 1u);
}

TEST(FlowRouterTest, FallsBackToDstWhenSrcIsUnattributed) {
  // Half-recognized job: GPU 7 talks to the job but no job owns it. A
  // src-only lookup would silently drop the 7->1 flow even though the
  // job owns its dst.
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1})};
  const FlowRouter router(jobs);

  FlowTrace trace;
  trace.add(flow_at(10, 7, 1));   // src unattributed, dst owned: recovered
  trace.add(flow_at(20, 0, 7));   // src owned: normal routing
  trace.add(flow_at(30, 8, 9));   // neither endpoint owned: unattributed
  const auto result = route(router, trace);
  EXPECT_EQ(result.flows_routed, 2u);
  EXPECT_EQ(result.flows_routed_via_dst, 1u);
  EXPECT_EQ(result.flows_unattributed, 1u);
  ASSERT_EQ(result.job_columns.size(), 1u);
  ASSERT_EQ(result.job_columns[0].size(), 2u);
  EXPECT_EQ(result.job_columns[0][0].src, GpuId(7));
  EXPECT_EQ(result.job_columns[0][1].src, GpuId(0));
}

TEST(FlowRouterTest, PreservesOrderSoSortedInputYieldsSortedJobTraces) {
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1}),
                                        job_with_gpus({2, 3})};
  const FlowRouter router(jobs);
  FlowTrace trace;
  trace.add(flow_at(10, 0, 1));
  trace.add(flow_at(20, 2, 3));
  trace.add(flow_at(30, 1, 0));
  trace.add(flow_at(40, 3, 2));
  ASSERT_TRUE(trace.is_sorted());
  const auto result = route(router, trace);
  for (const FlowColumns& jc : result.job_columns) {
    // Born sorted: the flag is inherited from the sorted input view.
    EXPECT_TRUE(jc.is_sorted());
  }
  EXPECT_EQ(result.job_columns[0][0].start_time, 10);
  EXPECT_EQ(result.job_columns[0][1].start_time, 30);
}

TEST(FlowRouterTest, GatherKeepsEachFlowsSwitchHops) {
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1}),
                                        job_with_gpus({2, 3})};
  const FlowRouter router(jobs);
  FlowTrace trace;
  trace.add(flow_at(10, 0, 1, {3, 4}));
  trace.add(flow_at(20, 2, 3, {5}));
  trace.add(flow_at(30, 1, 0));  // intra-machine: no hops
  trace.add(flow_at(40, 0, 1, {6, 7, 8}));
  const auto result = route(router, trace);
  ASSERT_EQ(result.job_columns.size(), 2u);

  const FlowColumns& job0 = result.job_columns[0];
  EXPECT_EQ(job0.switch_offsets, (std::vector<std::uint64_t>{0, 2, 2, 5}));
  EXPECT_EQ(job0.switch_ids, (std::vector<std::uint32_t>{3, 4, 6, 7, 8}));
  const FlowColumns& job1 = result.job_columns[1];
  EXPECT_EQ(job1.switch_offsets, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(job1.switch_ids, (std::vector<std::uint32_t>{5}));
  ASSERT_EQ(job0[2].switches.size(), 3u);
  EXPECT_EQ(job0[2].switches[0], SwitchId(6));
}

TEST(FlowRouterTest, LowerJobWinsContestedGpus) {
  // The recognizer never produces overlapping jobs; the table still has a
  // deterministic rule if it happens.
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1}),
                                        job_with_gpus({1, 2})};
  const FlowRouter router(jobs);
  EXPECT_EQ(router.job_of(GpuId(1)), 0u);
}

TEST(FlowRouterTest, EmptyJobsRouteNothing) {
  const FlowRouter router(std::vector<RecognizedJob>{});
  FlowTrace trace;
  trace.add(flow_at(10, 0, 1));
  const auto result = route(router, trace);
  EXPECT_TRUE(result.job_columns.empty());
  EXPECT_EQ(result.flows_routed, 0u);
  EXPECT_EQ(result.flows_unattributed, 1u);
}

void expect_columns_equal(const FlowColumns& a, const FlowColumns& b) {
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.duration_ns, b.duration_ns);
  EXPECT_EQ(a.switch_offsets, b.switch_offsets);
  EXPECT_EQ(a.switch_ids, b.switch_ids);
  EXPECT_EQ(a.sorted, b.sorted);
}

// Three jobs over GPUs 0..23 plus unowned GPUs 24..27 (dst fallback and
// unattributed rows), spanning several row chunks. Start times come from a
// small range, so rows of different jobs share start times, and some rows
// of one job tie under FlowStartTimeLess while differing in duration and
// hops.
FlowTrace multi_chunk_trace(std::uint64_t seed) {
  Rng rng(seed);
  FlowTrace trace;
  const std::size_t n = 3 * kScatterChunkRows + 321;
  for (std::size_t i = 0; i < n; ++i) {
    const auto job = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
    auto src = static_cast<std::uint32_t>(8 * job + rng.uniform_int(0, 7));
    auto dst = static_cast<std::uint32_t>(8 * job + rng.uniform_int(0, 7));
    if (rng.bernoulli(0.03)) src = static_cast<std::uint32_t>(24 + i % 4);
    if (rng.bernoulli(0.01)) dst = static_cast<std::uint32_t>(24 + i % 3);
    FlowRecord f = flow_at(rng.uniform_int(0, 400), src, dst);
    f.bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 3)) << 20;
    f.duration = rng.uniform_int(0, 50);
    const auto hops = rng.uniform_int(0, 3);
    for (std::int64_t h = 0; h < hops; ++h) {
      f.switches.push_back(SwitchId(static_cast<std::uint32_t>(
          rng.uniform_int(0, 9))));
    }
    trace.add(f);
  }
  trace.sort();
  return trace;
}

std::vector<RecognizedJob> three_jobs() {
  return {job_with_gpus({0, 1, 2, 3, 4, 5, 6, 7}),
          job_with_gpus({8, 9, 10, 11, 12, 13, 14, 15}),
          job_with_gpus({16, 17, 18, 19, 20, 21, 22, 23})};
}

// The chunked route on a pool must equal the one-chunk serial route field
// for field, and row_in_job must point at each row's copy in its job.
TEST(FlowRouterTest, ChunkedRouteMatchesSerialRoute) {
  const FlowTrace trace = multi_chunk_trace(5);
  const FlowColumns columns(trace);
  const FlowView view = columns.view();
  const FlowRouter router(three_jobs());
  ThreadPool pool(3);
  const FlowRouter::Result serial = router.route(view);
  const FlowRouter::Result chunked = router.route(view, &pool);
  ASSERT_GT(serial.flows_unattributed, 0u);
  ASSERT_GT(serial.flows_routed_via_dst, 0u);
  EXPECT_EQ(chunked.flows_routed, serial.flows_routed);
  EXPECT_EQ(chunked.flows_routed_via_dst, serial.flows_routed_via_dst);
  EXPECT_EQ(chunked.flows_unattributed, serial.flows_unattributed);
  EXPECT_EQ(chunked.job_of_flow, serial.job_of_flow);
  ASSERT_EQ(chunked.job_columns.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    expect_columns_equal(serial.job_columns[j], chunked.job_columns[j]);
  }
  for (std::size_t i = 0; i < view.size(); ++i) {
    const std::uint32_t j = chunked.job_of_flow[i];
    if (j == FlowRouter::kNoJob) continue;
    ASSERT_EQ(chunked.row_in_job[i], serial.row_in_job[i]) << "row " << i;
    ASSERT_EQ(chunked.job_columns[j][chunked.row_in_job[i]], trace[i])
        << "row " << i;
  }
}

// The DP gather must equal what it replaced: each job's DP rows appended
// in job order, then k-way merged with ties to the lower job id — on a mix
// whose jobs share start times and whose rows tie within a job.
TEST(FlowRouterTest, DpGatherEqualsMergeOfPerJobDpRuns) {
  ThreadPool pool(3);
  for (const std::uint64_t seed : {6u, 7u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FlowTrace trace = multi_chunk_trace(seed);
    const FlowColumns columns(trace);
    const FlowView view = columns.view();
    const FlowRouter router(three_jobs());
    const FlowRouter::Result routed = router.route(view, &pool);

    Rng rng(seed + 100);
    std::vector<std::vector<CommType>> types(3);
    std::vector<FlowColumns> runs(3);
    for (std::size_t j = 0; j < 3; ++j) {
      const FlowView job_view = routed.job_columns[j].view();
      for (std::size_t i = 0; i < job_view.size(); ++i) {
        types[j].push_back(rng.bernoulli(0.6) ? CommType::kDP : CommType::kPP);
        if (types[j].back() == CommType::kDP) runs[j].append_row(job_view, i);
      }
      runs[j].sorted = true;
    }
    const FlowColumns merged = FlowColumns::merge_sorted_runs(std::move(runs));
    ASSERT_GT(merged.size(), kScatterChunkRows);
    std::size_t cross_job_ties = 0;
    for (std::size_t i = 1; i < view.size(); ++i) {
      const std::uint32_t a = routed.job_of_flow[i - 1];
      const std::uint32_t b = routed.job_of_flow[i];
      if (view.start_ns[i] == view.start_ns[i - 1] && a != b &&
          a != FlowRouter::kNoJob && b != FlowRouter::kNoJob) {
        ++cross_job_ties;
      }
    }
    ASSERT_GT(cross_job_ties, 1000u) << "jobs must share start times";
    const std::span<const std::vector<CommType>> type_span(types);
    expect_columns_equal(merged,
                         FlowRouter::gather_dp_flows(view, routed, type_span));
    expect_columns_equal(
        merged, FlowRouter::gather_dp_flows(view, routed, type_span, &pool));
  }
}

TEST(FlowRouterTest, DpGatherOfNoDpRowsIsEmpty) {
  FlowTrace trace;
  trace.add(flow_at(10, 0, 1, {3}));
  trace.add(flow_at(20, 5, 6));  // unattributed
  const FlowColumns columns(trace);
  const FlowRouter router(std::vector<RecognizedJob>{job_with_gpus({0, 1})});
  const FlowRouter::Result routed = router.route(columns.view());
  const std::vector<std::vector<CommType>> types{{CommType::kPP}};
  const FlowColumns dp =
      FlowRouter::gather_dp_flows(columns.view(), routed, types);
  EXPECT_TRUE(dp.empty());
  EXPECT_EQ(dp.switch_offsets, (std::vector<std::uint64_t>{0}));
}

}  // namespace
}  // namespace llmprism
