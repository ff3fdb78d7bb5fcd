// Unit tests of the benchmark's own measurement logic: the percentile
// rule, self time from nested spans, and open-loop due-time accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "measure.hpp"
#include "schedule.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnARamp) {
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 90), 90.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 99), 990.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(10), 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = ramp(200);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(percentile(v, 90), 180.0);
  EXPECT_DOUBLE_EQ(median(v), 100.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(PercentileRule, TenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_TRUE(percentile_supported(100, 90));
  EXPECT_FALSE(percentile_supported(99, 90));
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_DOUBLE_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(150), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
}

llmprism::obs::SpanRecord span(const char* name, std::uint32_t tid,
                               std::int64_t start, std::int64_t dur) {
  return {name, tid, start, dur, llmprism::obs::SpanRecord::kNoArg};
}

const SpanNode& find(const std::vector<SpanNode>& tree, const char* name) {
  for (const SpanNode& n : tree) {
    if (std::string_view(n.record.name) == name) return n;
  }
  ADD_FAILURE() << "no span " << name;
  return tree.front();
}

TEST(SelfTime, NestedSpansOnOneThread) {
  // op [0,100) > analyze [10,90) > {recognize [10,30), route [40,50)}
  const auto tree = build_span_tree(
      {span("route", 0, 40, 10), span("op", 0, 0, 100),
       span("recognize", 0, 10, 20), span("analyze", 0, 10, 80)},
      {});
  EXPECT_EQ(find(tree, "op").self_us, 20);
  EXPECT_EQ(find(tree, "analyze").self_us, 50);
  EXPECT_EQ(find(tree, "recognize").self_us, 20);
  EXPECT_EQ(find(tree, "route").self_us, 10);
  // Self times of one tree add up to its root's duration.
  std::int64_t total = 0;
  for (const SpanNode& n : tree) total += n.self_us;
  EXPECT_EQ(total, 100);
  const auto by_name = subtree_self_by_name(tree, 0);
  EXPECT_EQ(by_name.at("analyze"), 50);
}

TEST(SelfTime, FanOutTasksAreAdoptedByTheFanOutSpan) {
  // analyze [0,100) on thread 0; two overlapping jobs on threads 1 and 2
  // cover [20,70) together; a query on thread 3 overlaps but is unrelated.
  const auto tree = build_span_tree(
      {span("analyze", 0, 0, 100), span("job", 1, 20, 40),
       span("job", 2, 30, 40), span("query", 3, 25, 10),
       span("comm", 1, 20, 15)},
      {{"analyze", "job"}});
  const SpanNode& analyze = find(tree, "analyze");
  EXPECT_EQ(analyze.children.size(), 2u);
  EXPECT_EQ(analyze.self_us, 50);  // 100 minus the union [20,70)
  EXPECT_EQ(find(tree, "query").parent, -1);
  EXPECT_EQ(find(tree, "comm").self_us, 15);
  EXPECT_EQ(tree[static_cast<std::size_t>(find(tree, "comm").parent)].record.tid, 1u);
}

TEST(SelfTime, EqualIntervalsStillNest) {
  // A wrapper whose call took no measurable time of its own shares its
  // child's interval: one nests in the other and the time is counted once.
  const auto tree = build_span_tree(
      {span("wrapper", 0, 5, 10), span("call", 0, 5, 10)}, {});
  EXPECT_EQ(tree[1].parent, 0);
  EXPECT_EQ(tree[0].self_us + tree[1].self_us, 10);
}

TEST(CoveredLength, MergesOverlapsAndClips) {
  EXPECT_EQ(covered_length({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25);
  EXPECT_EQ(covered_length({{-5, 10}, {90, 120}}, 0, 100), 20);
  EXPECT_EQ(covered_length({}, 0, 100), 0);
}

TEST(OpenLoop, DueTimesFollowTheNominalRate) {
  const auto due = due_offsets({100, 300, 50, 10}, 1000.0);
  ASSERT_EQ(due.size(), 4u);
  EXPECT_DOUBLE_EQ(due[0], 0.0);
  EXPECT_DOUBLE_EQ(due[1], 0.1);
  EXPECT_DOUBLE_EQ(due[2], 0.4);
  EXPECT_DOUBLE_EQ(due[3], 0.45);
}

TEST(OpenLoop, WaitingForTheSystemIsNotGeneratorLag) {
  const double none = -std::numeric_limits<double>::infinity();
  EXPECT_NEAR(generator_lag(1.0, 1.0005, none), 0.0005, 1e-12);
  // The previous reply came at 1.2, long after this item was due at 1.0:
  // the 0.2 s are the system's; only the 0.001 s after the reply count.
  EXPECT_NEAR(generator_lag(1.0, 1.201, 1.2), 0.001, 1e-12);
  EXPECT_DOUBLE_EQ(generator_lag(1.0, 0.999, none), 0.0);
}

TEST(OpenLoop, AStallChargesEveryItemQueuedBehindIt) {
  // Items due every 10 ms; the reply to item 0 stalls until t = 0.05, so
  // items 1..4 all start late. Their latency is timed from their due
  // times, while the generator itself is never late.
  const auto due = due_offsets({10, 10, 10, 10, 10}, 1000.0);
  std::vector<SendTiming> sends;
  double clock = 0;
  for (std::size_t k = 0; k < due.size(); ++k) {
    const double start = std::max(clock, due[k]);
    const double reply = k == 0 ? 0.05 : start + 0.0001;
    sends.push_back({due[k], start, reply});
    clock = reply;
  }
  EXPECT_NEAR(sends[1].reply - sends[1].due, 0.0401, 1e-12);
  EXPECT_NEAR(sends[4].reply - sends[4].due, 0.0104, 1e-12);
  const GeneratorReport report = summarize_generator(sends, 0.001, 0.01);
  EXPECT_EQ(report.late_sends, 0u);
  EXPECT_FALSE(report.fell_behind);
  EXPECT_DOUBLE_EQ(report.lag_p99_ms, 0.0);
}

TEST(OpenLoop, ASlowGeneratorIsFlagged) {
  std::vector<SendTiming> sends;
  for (int k = 0; k < 100; ++k) {
    const double due = 0.01 * k;
    const double start = due + (k % 10 == 0 ? 0.005 : 0.0);
    sends.push_back({due, start, start + 0.0001});
  }
  const GeneratorReport report = summarize_generator(sends, 0.001, 0.05);
  EXPECT_EQ(report.late_sends, 10u);
  EXPECT_TRUE(report.fell_behind);
  EXPECT_NEAR(report.lag_p99_ms, 5.0, 1e-9);
}

TEST(Detection, WindowsBecomeVisibleInDueOrder) {
  const std::vector<double> due = {1.0, 2.0, 3.0};
  const auto lat = detection_latencies(
      due, {{1.5, 0}, {2.004, 1}, {3.5, 3}, {4.0, 3}});
  ASSERT_EQ(lat.size(), 3u);
  EXPECT_NEAR(lat[0], 1.004, 1e-12);
  EXPECT_NEAR(lat[1], 1.5, 1e-12);
  EXPECT_NEAR(lat[2], 0.5, 1e-12);
  // A window never observed is left out.
  EXPECT_EQ(detection_latencies(due, {{2.5, 1}}).size(), 1u);
}

}  // namespace
}  // namespace perfbench
