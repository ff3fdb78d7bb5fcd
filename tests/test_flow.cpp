// Unit tests for flow records, traces and CSV I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "llmprism/common/csv.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/flow/trace.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/obs/metrics.hpp"

namespace llmprism {
namespace {

FlowRecord make_flow(TimeNs t, std::uint32_t src, std::uint32_t dst,
                     std::uint64_t bytes = 1000, DurationNs dur = 100) {
  FlowRecord f;
  f.start_time = t;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = bytes;
  f.duration = dur;
  return f;
}

// ---------------------------------------------------------------------------
// FlowRecord

TEST(FlowRecordTest, EndTimeAndPair) {
  const auto f = make_flow(100, 1, 2, 5000, 50);
  EXPECT_EQ(f.end_time(), 150);
  EXPECT_EQ(f.pair(), GpuPair(GpuId(2), GpuId(1)));
}

TEST(FlowRecordTest, BandwidthGbps) {
  // 250 bytes in 100 ns = 2000 bits / 100 ns = 20 Gb/s.
  const auto f = make_flow(0, 1, 2, 250, 100);
  EXPECT_DOUBLE_EQ(f.bandwidth_gbps(), 20.0);
  const auto zero = make_flow(0, 1, 2, 250, 0);
  EXPECT_DOUBLE_EQ(zero.bandwidth_gbps(), 0.0);
}

TEST(FlowStartTimeLessTest, OrdersByTimeThenEndpoints) {
  const FlowStartTimeLess less;
  EXPECT_TRUE(less(make_flow(1, 9, 9), make_flow(2, 0, 0)));
  EXPECT_TRUE(less(make_flow(1, 1, 5), make_flow(1, 2, 0)));
  EXPECT_FALSE(less(make_flow(1, 1, 1), make_flow(1, 1, 1)));
}

// ---------------------------------------------------------------------------
// FlowTrace

TEST(FlowTraceTest, SortAndIsSorted) {
  FlowTrace t;
  t.add(make_flow(30, 1, 2));
  t.add(make_flow(10, 1, 2));
  t.add(make_flow(20, 1, 2));
  EXPECT_FALSE(t.is_sorted());
  t.sort();
  EXPECT_TRUE(t.is_sorted());
  EXPECT_EQ(t[0].start_time, 10);
  EXPECT_EQ(t[2].start_time, 30);
}

TEST(FlowTraceTest, WindowSelectsHalfOpenRange) {
  FlowTrace t;
  for (TimeNs i = 0; i < 10; ++i) t.add(make_flow(i * 100, 1, 2));
  t.sort();
  const auto w = t.window({200, 500});
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].start_time, 200);
  EXPECT_EQ(w[2].start_time, 400);
}

TEST(FlowTraceTest, WindowOnUnsortedThrows) {
  FlowTrace t;
  t.add(make_flow(30, 1, 2));
  t.add(make_flow(10, 1, 2));
  EXPECT_THROW(t.window({0, 100}), std::logic_error);
}

TEST(FlowTraceTest, WindowEmptyResult) {
  FlowTrace t;
  t.add(make_flow(100, 1, 2));
  t.sort();
  EXPECT_TRUE(t.window({200, 300}).empty());
  EXPECT_TRUE(FlowTrace{}.window({0, 100}).empty());
}

TEST(FlowTraceTest, SpanCoversFlows) {
  FlowTrace t;
  t.add(make_flow(100, 1, 2, 10, 50));
  t.add(make_flow(300, 1, 2, 10, 500));
  const auto s = t.span();
  EXPECT_EQ(s.begin, 100);
  EXPECT_EQ(s.end, 800);
  EXPECT_EQ(FlowTrace{}.span().length(), 0);
}

TEST(FlowTraceTest, AppendConcatenates) {
  FlowTrace a, b;
  a.add(make_flow(1, 1, 2));
  b.add(make_flow(2, 3, 4));
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
}

// ---------------------------------------------------------------------------
// Sortedness cache + merge primitives (the sort-once data plane)

TEST(FlowTraceSortednessTest, InOrderAddsKeepTraceSorted) {
  FlowTrace t;
  EXPECT_TRUE(t.is_sorted());  // empty is sorted
  t.add(make_flow(10, 1, 2));
  t.add(make_flow(10, 1, 2));  // equal keys are fine
  t.add(make_flow(20, 1, 2));
  EXPECT_TRUE(t.is_sorted());
}

TEST(FlowTraceSortednessTest, OutOfOrderAddInvalidatesUntilSort) {
  FlowTrace t;
  t.add(make_flow(20, 1, 2));
  t.add(make_flow(10, 1, 2));
  EXPECT_FALSE(t.is_sorted());
  t.sort();
  EXPECT_TRUE(t.is_sorted());
  t.add(make_flow(30, 1, 2));  // in-order add after sort stays sorted
  EXPECT_TRUE(t.is_sorted());
}

TEST(FlowTraceSortednessTest, AppendTracksBoundaryOrder) {
  FlowTrace a, b;
  a.add(make_flow(1, 1, 2));
  a.add(make_flow(2, 1, 2));
  b.add(make_flow(3, 3, 4));
  a.append(b);  // ordered boundary: stays known-sorted
  EXPECT_TRUE(a.is_sorted());

  FlowTrace c;
  c.add(make_flow(0, 5, 6));
  a.append(c);  // boundary goes backwards
  EXPECT_FALSE(a.is_sorted());

  FlowTrace d, unsorted;
  d.add(make_flow(1, 1, 2));
  unsorted.add(make_flow(9, 1, 2));
  unsorted.add(make_flow(5, 1, 2));
  d.append(unsorted);  // appending an unsorted trace invalidates
  EXPECT_FALSE(d.is_sorted());
}

TEST(FlowTraceSortednessTest, VerifyCachesAPositiveScan) {
  // A trace built out of order but whose content happens to be sorted is
  // recognized by the O(N) verify (and window() then works).
  std::vector<FlowRecord> flows{make_flow(1, 1, 2), make_flow(2, 1, 2)};
  const FlowTrace t(std::move(flows));
  EXPECT_TRUE(t.is_sorted());
  EXPECT_EQ(t.window({0, 10}).size(), 2u);
}

TEST(FlowTraceSortednessTest, WindowResultIsBornSorted) {
  FlowTrace t;
  for (TimeNs i = 0; i < 10; ++i) t.add(make_flow(i * 100, 1, 2));
  const FlowTrace w = t.window({200, 700});
  EXPECT_TRUE(w.is_sorted());
}

TEST(FlowTraceSortednessTest, PhysicalSortsAreCounted) {
  obs::Counter& sorts = obs::default_registry().counter(
      "llmprism_flowtrace_sorts_total");
  FlowTrace t;
  t.add(make_flow(10, 1, 2));
  t.add(make_flow(20, 1, 2));
  const std::uint64_t before = sorts.value();
  t.sort();  // already sorted: no physical sort
  EXPECT_EQ(sorts.value(), before);
  t.add(make_flow(5, 1, 2));
  t.sort();  // genuinely unsorted: exactly one physical sort
  EXPECT_EQ(sorts.value(), before + 1);
  t.sort();
  EXPECT_EQ(sorts.value(), before + 1);
}

TEST(FlowTraceMergeTest, MergeSortedMatchesAppendPlusSort) {
  // Randomized property test: for random sorted runs, merge_sorted is
  // record-for-record equal to append + sort.
  Rng rng(321);
  for (int round = 0; round < 50; ++round) {
    FlowTrace a, b;
    const int na = rng.uniform_int(0, 40);
    const int nb = rng.uniform_int(0, 40);
    for (int i = 0; i < na; ++i) {
      a.add(make_flow(static_cast<TimeNs>(rng.uniform_int(0, 1000)),
                      static_cast<std::uint32_t>(rng.uniform_int(0, 7)),
                      static_cast<std::uint32_t>(rng.uniform_int(8, 15)),
                      static_cast<std::uint64_t>(rng.uniform_int(1, 5))));
    }
    for (int i = 0; i < nb; ++i) {
      b.add(make_flow(static_cast<TimeNs>(rng.uniform_int(0, 1000)),
                      static_cast<std::uint32_t>(rng.uniform_int(0, 7)),
                      static_cast<std::uint32_t>(rng.uniform_int(8, 15)),
                      static_cast<std::uint64_t>(rng.uniform_int(1, 5))));
    }
    a.sort();
    b.sort();

    FlowTrace expected = a;
    expected.append(b);
    expected.sort();

    FlowTrace merged = a;
    merged.merge_sorted(b);
    EXPECT_TRUE(merged.is_sorted());
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i], expected[i]) << "round " << round << " pos " << i;
    }
  }
}

TEST(FlowTraceMergeTest, MergeSortedRunsMatchesAppendPlusSort) {
  Rng rng(654);
  for (int round = 0; round < 25; ++round) {
    const int k = rng.uniform_int(0, 6);
    std::vector<FlowTrace> runs(static_cast<std::size_t>(k));
    FlowTrace expected;
    for (FlowTrace& run : runs) {
      const int n = rng.uniform_int(0, 30);
      for (int i = 0; i < n; ++i) {
        run.add(make_flow(static_cast<TimeNs>(rng.uniform_int(0, 500)),
                          static_cast<std::uint32_t>(rng.uniform_int(0, 3)),
                          static_cast<std::uint32_t>(rng.uniform_int(4, 7))));
      }
      run.sort();
      expected.append(run);
    }
    expected.sort();

    const FlowTrace merged = FlowTrace::merge_sorted_runs(std::move(runs));
    EXPECT_TRUE(merged.is_sorted());
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i], expected[i]) << "round " << round << " pos " << i;
    }
  }
}

TEST(FlowTraceMergeTest, MergeSortedRunsBreaksTiesByRunIndex) {
  // Two runs carrying records with identical sort keys but different
  // durations: the lower run's record must come out first.
  FlowTrace run0, run1;
  run0.add(make_flow(100, 1, 2, 1000, 11));
  run1.add(make_flow(100, 1, 2, 1000, 22));
  const FlowTrace merged = FlowTrace::merge_sorted_runs({run0, run1});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].duration, 11);
  EXPECT_EQ(merged[1].duration, 22);
}

TEST(FlowTraceMergeTest, MergeIntoEmptyAndFromEmpty) {
  FlowTrace a;
  FlowTrace b;
  b.add(make_flow(1, 1, 2));
  a.merge_sorted(b);  // into empty
  EXPECT_EQ(a.size(), 1u);
  a.merge_sorted(FlowTrace{});  // from empty
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(FlowTrace::merge_sorted_runs({}).empty());
}

// ---------------------------------------------------------------------------
// FlowColumns::merge_sorted_runs with a single non-empty run (handed back by
// move rather than copied row by row through the merge heap)

void expect_columns_equal(const FlowColumns& a, const FlowColumns& b) {
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.duration_ns, b.duration_ns);
  EXPECT_EQ(a.switch_offsets, b.switch_offsets);
  EXPECT_EQ(a.switch_ids, b.switch_ids);
  EXPECT_EQ(a.is_sorted(), b.is_sorted());
}

/// What the row-by-row heap merge writes for one run already in order.
FlowColumns append_rows(const FlowColumns& run) {
  FlowColumns out;
  out.switch_offsets.push_back(0);
  const FlowView v = run.view();
  for (std::size_t i = 0; i < v.size(); ++i) out.append_row(v, i);
  out.sorted = true;
  return out;
}

FlowTrace routed_trace(std::initializer_list<TimeNs> starts) {
  FlowTrace trace;
  std::uint32_t k = 0;
  for (const TimeNs t : starts) {
    FlowRecord f = make_flow(t, k % 4, 4 + k % 4, 1000 + k, 100 + k);
    for (std::uint32_t h = 0; h <= k % 3; ++h) {
      f.switches.push_back(SwitchId(k + h));
    }
    trace.add(f);
    ++k;
  }
  return trace;
}

TEST(FlowColumnsMergeTest, LoneRunAmongEmptyRunsIsUnchanged) {
  const FlowColumns run(routed_trace({10, 20, 20, 35, 90}));
  ASSERT_TRUE(run.is_sorted());
  std::vector<FlowColumns> runs(4);
  runs[2] = run;
  const FlowColumns merged = FlowColumns::merge_sorted_runs(std::move(runs));
  EXPECT_TRUE(merged.is_sorted());
  expect_columns_equal(merged, run);
  expect_columns_equal(merged, append_rows(run));
}

TEST(FlowColumnsMergeTest, UnsortedLoneRunComesBackSorted) {
  const FlowTrace trace = routed_trace({50, 10, 40, 20, 30});
  const FlowColumns run(trace);
  ASSERT_FALSE(run.is_sorted());
  FlowTrace sorted_trace = trace;
  sorted_trace.sort();
  const FlowColumns merged =
      FlowColumns::merge_sorted_runs({FlowColumns{}, run});
  EXPECT_TRUE(merged.is_sorted());
  EXPECT_TRUE(merged.view().verify_sorted());
  expect_columns_equal(merged, FlowColumns(sorted_trace));
}

TEST(FlowColumnsMergeTest, HoplessLoneRunGetsZeroOffsets) {
  // Columns written directly, without a hop column: the merge must still
  // return the size()+1 zero offsets a row-by-row append writes.
  FlowColumns run;
  run.start_ns = {1, 2, 3};
  run.src = {0, 1, 2};
  run.dst = {4, 5, 6};
  run.bytes = {10, 20, 30};
  run.duration_ns = {5, 5, 5};
  const FlowColumns merged = FlowColumns::merge_sorted_runs({run});
  EXPECT_EQ(merged.switch_offsets, (std::vector<std::uint64_t>{0, 0, 0, 0}));
  expect_columns_equal(merged, append_rows(run));
}

TEST(FlowColumnsMergeTest, AllEmptyRunsGiveEmptySortedColumns) {
  for (const std::size_t k : {0u, 1u, 3u}) {
    const FlowColumns merged =
        FlowColumns::merge_sorted_runs(std::vector<FlowColumns>(k));
    EXPECT_TRUE(merged.empty());
    EXPECT_TRUE(merged.is_sorted());
    EXPECT_EQ(merged.switch_offsets, (std::vector<std::uint64_t>{0}));
    EXPECT_TRUE(merged.switch_ids.empty());
  }
}

TEST(FlowTraceDropBeforeTest, ErasesStrictPrefix) {
  FlowTrace t;
  for (TimeNs i = 0; i < 10; ++i) t.add(make_flow(i * 100, 1, 2));
  t.drop_before(500);
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0].start_time, 500);
  t.drop_before(0);  // no-op
  EXPECT_EQ(t.size(), 5u);
  t.drop_before(10000);  // drops everything
  EXPECT_TRUE(t.empty());

  FlowTrace unsorted;
  unsorted.add(make_flow(20, 1, 2));
  unsorted.add(make_flow(10, 1, 2));
  EXPECT_THROW(unsorted.drop_before(15), std::logic_error);
}

TEST(FlowTraceIndexTest, PairIndexGroupsBothDirections) {
  FlowTrace t;
  t.add(make_flow(1, 1, 2));
  t.add(make_flow(2, 2, 1));  // reverse direction, same pair
  t.add(make_flow(3, 1, 3));
  const PairIndex idx(t);
  ASSERT_EQ(idx.num_pairs(), 2u);
  EXPECT_EQ(idx.num_flows(), 3u);
  const std::uint32_t p12 = idx.id_of(GpuPair(GpuId(1), GpuId(2)));
  const std::uint32_t p13 = idx.id_of(GpuPair(GpuId(1), GpuId(3)));
  ASSERT_NE(p12, PairIndex::kNoPair);
  ASSERT_NE(p13, PairIndex::kNoPair);
  EXPECT_EQ(idx.positions(p12).size(), 2u);
  EXPECT_EQ(idx.positions(p13).size(), 1u);
  EXPECT_EQ(idx.id_of(GpuPair(GpuId(7), GpuId(8))), PairIndex::kNoPair);
}

void expect_pair_indexes_equal(const PairIndex& reference,
                               const PairIndex& got) {
  ASSERT_EQ(got.num_pairs(), reference.num_pairs());
  ASSERT_EQ(got.num_flows(), reference.num_flows());
  EXPECT_EQ(got.pairs(), reference.pairs());
  for (std::size_t id = 0; id < reference.num_pairs(); ++id) {
    const auto want = reference.positions(id);
    const auto have = got.positions(id);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), have.begin(), have.end()))
        << "pair " << id;
    EXPECT_EQ(got.id_of(reference.pair(id)), id);
  }
  const auto want = reference.pair_of_flow();
  const auto have = got.pair_of_flow();
  EXPECT_TRUE(std::equal(want.begin(), want.end(), have.begin(), have.end()));
}

// The chunked columnar build (pooled or not) must equal the hash-interning
// reference build: random views spanning several row chunks, pairs that
// repeat in both directions, and src == dst rows.
TEST(FlowTraceIndexTest, ChunkedColumnarPairIndexMatchesReference) {
  ThreadPool pool(3);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FlowTrace t;
    const std::size_t n = 3 * kScatterChunkRows + 1000 * seed;
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = static_cast<std::uint32_t>(rng.uniform_int(0, 47));
      const auto dst = rng.bernoulli(0.05)
                           ? src
                           : static_cast<std::uint32_t>(rng.uniform_int(0, 47));
      t.add(make_flow(rng.uniform_int(0, 1'000'000), src, dst));
    }
    const PairIndex reference(t);
    ASSERT_GT(reference.num_pairs(), 500u);
    ASSERT_LT(reference.num_pairs(), n / 10) << "pairs must repeat";
    const FlowColumns columns(t);
    expect_pair_indexes_equal(reference, PairIndex(columns.view()));
    expect_pair_indexes_equal(reference, PairIndex(columns.view(), &pool));
    // A slice starting mid-chunk, so chunk edges fall elsewhere.
    const FlowView slice = columns.view().slice(777, n - 5);
    const PairIndex slice_reference(materialize(slice));
    expect_pair_indexes_equal(slice_reference, PairIndex(slice, &pool));
  }
}

TEST(FlowTraceIndexTest, PairIndexFirstAppearanceOrderAndPositions) {
  FlowTrace t;
  t.add(make_flow(1, 1, 2));
  t.add(make_flow(2, 3, 4));
  t.add(make_flow(3, 2, 1));
  t.add(make_flow(4, 1, 2));
  const PairIndex idx(t);
  ASSERT_EQ(idx.num_pairs(), 2u);
  // Dense ids follow first appearance in the trace.
  EXPECT_EQ(idx.pair(0), GpuPair(GpuId(1), GpuId(2)));
  EXPECT_EQ(idx.pair(1), GpuPair(GpuId(3), GpuId(4)));
  // Positions stay in trace order within each pair.
  const auto pos0 = idx.positions(0);
  ASSERT_EQ(pos0.size(), 3u);
  EXPECT_EQ(pos0[0], 0u);
  EXPECT_EQ(pos0[1], 2u);
  EXPECT_EQ(pos0[2], 3u);
  // pair_of_flow inverts the index.
  const auto pof = idx.pair_of_flow();
  ASSERT_EQ(pof.size(), 4u);
  EXPECT_EQ(pof[0], 0u);
  EXPECT_EQ(pof[1], 1u);
  EXPECT_EQ(pof[2], 0u);
  EXPECT_EQ(pof[3], 0u);
}

TEST(FlowTraceIndexTest, SwitchIndexCountsEveryHop) {
  FlowTrace t;
  auto f = make_flow(1, 1, 2);
  f.switches.push_back(SwitchId(0));
  f.switches.push_back(SwitchId(5));
  t.add(f);
  const auto idx = build_switch_index(t);
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.at(SwitchId(0)).size(), 1u);
  EXPECT_EQ(idx.at(SwitchId(5)).size(), 1u);
}

TEST(FlowTraceIndexTest, EndpointsAndPairs) {
  FlowTrace t;
  t.add(make_flow(1, 1, 2));
  t.add(make_flow(2, 2, 1));
  t.add(make_flow(3, 2, 3));
  EXPECT_EQ(endpoints(t).size(), 3u);
  EXPECT_EQ(communication_pairs(t).size(), 2u);
}

// ---------------------------------------------------------------------------
// CSV primitives

TEST(CsvTest, ParseSimpleLine) {
  const auto fields = csv::parse_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvTest, ParseQuotedFields) {
  const auto fields = csv::parse_line(R"(1,"two, three","he said ""hi""")");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "two, three");
  EXPECT_EQ(fields[2], "he said \"hi\"");
}

TEST(CsvTest, ParseEmptyFields) {
  const auto fields = csv::parse_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(CsvTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(csv::parse_line("\"oops"), std::runtime_error);
}

TEST(CsvTest, EscapeRoundTrip) {
  const std::string nasty = R"(a,"b" c)";
  const auto escaped = csv::escape_field(nasty);
  const auto parsed = csv::parse_line(escaped);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], nasty);
}

TEST(CsvTest, ReadAllSkipsBlankLines) {
  std::istringstream is("a,b\n\nc,d\n");
  const auto rows = csv::read_all(is);
  EXPECT_EQ(rows.size(), 2u);
}

// ---------------------------------------------------------------------------
// Flow CSV I/O

TEST(FlowIoTest, RoundTripPreservesEverything) {
  FlowTrace t;
  auto f1 = make_flow(123456789, 7, 9, 1ull << 33, 42000);
  f1.switches.push_back(SwitchId(3));
  f1.switches.push_back(SwitchId(17));
  f1.switches.push_back(SwitchId(4));
  t.add(f1);
  t.add(make_flow(-5, 0, 1));  // negative time (pre-epoch) allowed

  std::stringstream ss;
  write_csv(ss, t);
  const FlowTrace back = read_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], t[0]);
  EXPECT_EQ(back[1], t[1]);
}

TEST(FlowIoTest, EmptyTraceRoundTrip) {
  std::stringstream ss;
  write_csv(ss, FlowTrace{});
  EXPECT_TRUE(read_csv(ss).empty());
}

TEST(FlowIoTest, MissingHeaderThrows) {
  std::istringstream is("");
  EXPECT_THROW(read_csv(is), std::runtime_error);
}

TEST(FlowIoTest, WrongFieldCountThrows) {
  std::istringstream is("start_ns,src,dst,bytes,duration_ns,switches\n1,2,3\n");
  EXPECT_THROW(read_csv(is), std::runtime_error);
}

TEST(FlowIoTest, BadNumberThrows) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,x,3,4,5,\n");
  EXPECT_THROW(read_csv(is), std::runtime_error);
}

TEST(FlowIoTest, EmptySwitchListParses) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,2,3,4,5,\n");
  const auto t = read_csv(is);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t[0].switches.empty());
}

TEST(FlowIoTest, FileRoundTrip) {
  FlowTrace t;
  t.add(make_flow(1, 2, 3));
  const std::string path = ::testing::TempDir() + "/flows_test.csv";
  write_csv_file(path, t);
  const auto back = read_csv_file(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], t[0]);
  EXPECT_THROW(read_csv_file("/nonexistent/nope.csv"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// read_csv_checked: non-throwing parse with editor-accurate diagnostics.

TEST(FlowIoCheckedTest, ReportsPhysicalLineNumbers) {
  // Line 1: header. Line 2: blank (counts toward numbering). Line 3: bad
  // field. Line 4: good row. Line 5: wrong field count.
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n"
      "\n"
      "1,2,3,abc,5,\n"
      "10,2,3,4,5,\n"
      "1,2,3\n");
  const ParseResult result = read_csv_checked(is);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.lines_read, 5u);
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_NE(result.errors[0].message.find("bytes"), std::string::npos);
  EXPECT_EQ(result.errors[1].line, 5u);
  EXPECT_NE(result.errors[1].message.find("expected 6 fields"),
            std::string::npos);
  // The good row between the bad ones is still parsed.
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].start_time, 10);
}

TEST(FlowIoCheckedTest, CrlfLinesParse) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\r\n1,2,3,4,5,\r\n");
  const ParseResult result = read_csv_checked(is);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].duration, 5);
}

TEST(FlowIoCheckedTest, FinalRowWithoutNewlineParses) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,2,3,4,5,3;17");
  const ParseResult result = read_csv_checked(is);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.lines_read, 2u);
  ASSERT_EQ(result.trace.size(), 1u);
  ASSERT_EQ(result.trace[0].switches.size(), 2u);
  EXPECT_EQ(result.trace[0].switches[1], SwitchId(17));
}

TEST(FlowIoCheckedTest, EmbeddedNulIsRejectedPerLine) {
  std::string in =
      "start_ns,src,dst,bytes,duration_ns,switches\n"
      "1,2,3,4,5,\n";
  in += std::string("6,7,8,9,") + '\0' + ",\n";  // line 3: NUL inside a row
  in += "10,2,3,4,5,\n";
  const ParseResult result = read_csv_checked(in);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_NE(result.errors[0].message.find("NUL"), std::string::npos);
  // Rows around the poisoned one still parse.
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[1].start_time, 10);
}

TEST(FlowIoCheckedTest, TooManySwitchHopsIsRejected) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,2,3,4,5,1;2;3;4;5\n");
  const ParseResult result = read_csv_checked(is);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].message.find("too many switch hops"),
            std::string::npos);
  EXPECT_TRUE(result.trace.empty());
}

TEST(FlowIoCheckedTest, MissingHeaderIsAnError) {
  std::istringstream empty("");
  const ParseResult none = read_csv_checked(empty);
  ASSERT_EQ(none.errors.size(), 1u);
  EXPECT_NE(none.errors[0].message.find("missing header"), std::string::npos);

  // A non-header first line stops the parse: the file is not a flow CSV.
  std::istringstream wrong("time,from,to\n1,2,3,4,5,\n");
  const ParseResult bad = read_csv_checked(wrong);
  ASSERT_EQ(bad.errors.size(), 1u);
  EXPECT_EQ(bad.errors[0].line, 1u);
  EXPECT_NE(bad.errors[0].message.find("expected header"), std::string::npos);
  EXPECT_TRUE(bad.trace.empty());
}

TEST(FlowIoCheckedTest, ThrowingWrapperNamesFirstBadLine) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n"
      "1,x,3,4,5,\n"
      "1,2,3\n");
  try {
    (void)read_csv(is);
    FAIL() << "read_csv must throw on malformed input";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("+1 more bad lines"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace llmprism
