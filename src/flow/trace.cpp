#include "llmprism/flow/trace.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "llmprism/common/thread_pool.hpp"
#include "llmprism/flow/view.hpp"
#include "sorts_counter.hpp"

namespace llmprism {

namespace detail {

obs::Counter& flow_sorts_counter() {
  static obs::Counter& counter = obs::default_registry().counter(
      "llmprism_flowtrace_sorts_total",
      "Physical FlowTrace sorts performed (no-op sorts on already-sorted "
      "traces are not counted)");
  return counter;
}

}  // namespace detail

namespace {

/// Registered at load time, so a run with no physical sort exports 0.
[[maybe_unused]] const obs::Counter& registered_sorts_counter =
    detail::flow_sorts_counter();

}  // namespace

FlowTrace::FlowTrace(std::vector<FlowRecord> flows)
    : flows_(std::move(flows)),
      sorted_(std::is_sorted(flows_.begin(), flows_.end(),
                             FlowStartTimeLess{})) {}

void FlowTrace::add(FlowRecord flow) {
  if (sorted_ && !flows_.empty() &&
      FlowStartTimeLess{}(flow, flows_.back())) {
    sorted_ = false;
  }
  flows_.push_back(std::move(flow));
}

void FlowTrace::append(const FlowTrace& other) {
  if (other.flows_.empty()) return;
  if (sorted_ &&
      !(other.sorted_ &&
        (flows_.empty() ||
         !FlowStartTimeLess{}(other.flows_.front(), flows_.back())))) {
    sorted_ = false;
  }
  flows_.insert(flows_.end(), other.flows_.begin(), other.flows_.end());
}

void FlowTrace::append(FlowTrace&& other) {
  if (other.flows_.empty()) return;
  if (flows_.empty() && flows_.capacity() < other.flows_.size()) {
    flows_ = std::move(other.flows_);
    sorted_ = other.sorted_;
  } else {
    if (sorted_ &&
        !(other.sorted_ &&
          (flows_.empty() ||
           !FlowStartTimeLess{}(other.flows_.front(), flows_.back())))) {
      sorted_ = false;
    }
    flows_.insert(flows_.end(),
                  std::make_move_iterator(other.flows_.begin()),
                  std::make_move_iterator(other.flows_.end()));
  }
  other.flows_.clear();
  other.sorted_ = true;
}

void FlowTrace::sort() {
  if (is_sorted()) return;
  std::sort(flows_.begin(), flows_.end(), FlowStartTimeLess{});
  sorted_ = true;
  detail::flow_sorts_counter().inc();
}

bool FlowTrace::is_sorted() const {
  if (sorted_) return true;
  if (std::is_sorted(flows_.begin(), flows_.end(), FlowStartTimeLess{})) {
    sorted_ = true;
  }
  return sorted_;
}

void FlowTrace::merge_sorted(FlowTrace other) {
  sort();
  other.sort();
  if (other.flows_.empty()) return;
  if (flows_.empty()) {
    flows_ = std::move(other.flows_);
    return;
  }
  // Pure-append fast path: the incoming run starts at or after our back.
  if (!FlowStartTimeLess{}(other.flows_.front(), flows_.back())) {
    flows_.insert(flows_.end(),
                  std::make_move_iterator(other.flows_.begin()),
                  std::make_move_iterator(other.flows_.end()));
    return;
  }
  std::vector<FlowRecord> merged;
  merged.reserve(flows_.size() + other.flows_.size());
  // std::merge keeps first-range elements before second-range on ties.
  std::merge(std::make_move_iterator(flows_.begin()),
             std::make_move_iterator(flows_.end()),
             std::make_move_iterator(other.flows_.begin()),
             std::make_move_iterator(other.flows_.end()),
             std::back_inserter(merged), FlowStartTimeLess{});
  flows_ = std::move(merged);
}

FlowTrace FlowTrace::merge_sorted_runs(std::vector<FlowTrace> runs) {
  std::size_t total = 0;
  for (FlowTrace& run : runs) {
    run.sort();
    total += run.size();
  }
  std::vector<FlowRecord> merged;
  merged.reserve(total);

  // Min-heap of run indices keyed by each run's next record; ties go to
  // the lower run index, so the merge is stable in the runs' order.
  std::vector<std::size_t> heads(runs.size(), 0);
  std::vector<std::size_t> heap;
  heap.reserve(runs.size());
  const auto later = [&](std::size_t a, std::size_t b) {
    const FlowRecord& fa = runs[a][heads[a]];
    const FlowRecord& fb = runs[b][heads[b]];
    if (FlowStartTimeLess{}(fa, fb)) return false;
    if (FlowStartTimeLess{}(fb, fa)) return true;
    return a > b;
  };
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heap.push_back(r);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t r = heap.back();
    heap.pop_back();
    merged.push_back(runs[r][heads[r]]);
    if (++heads[r] < runs[r].size()) {
      heap.push_back(r);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return FlowTrace(std::move(merged), SortedTag{});
}

void FlowTrace::drop_before(TimeNs t) {
  if (!is_sorted()) {
    throw std::logic_error("FlowTrace::drop_before requires a sorted trace");
  }
  const auto lo = std::lower_bound(
      flows_.begin(), flows_.end(), t,
      [](const FlowRecord& f, TimeNs at) { return f.start_time < at; });
  flows_.erase(flows_.begin(), lo);
}

FlowTrace FlowTrace::window(TimeWindow w) const {
  if (!is_sorted()) {
    throw std::logic_error("FlowTrace::window requires a sorted trace");
  }
  const auto lo = std::lower_bound(
      flows_.begin(), flows_.end(), w.begin,
      [](const FlowRecord& f, TimeNs t) { return f.start_time < t; });
  const auto hi = std::lower_bound(
      lo, flows_.end(), w.end,
      [](const FlowRecord& f, TimeNs t) { return f.start_time < t; });
  return FlowTrace(std::vector<FlowRecord>(lo, hi), SortedTag{});
}

TimeWindow FlowTrace::span() const {
  if (flows_.empty()) return {};
  TimeNs lo = flows_.front().start_time;
  TimeNs hi = flows_.front().end_time();
  for (const FlowRecord& f : flows_) {
    lo = std::min(lo, f.start_time);
    hi = std::max(hi, f.end_time());
  }
  return {lo, hi};
}

PairIndex::PairIndex(const FlowTrace& trace) {
  pair_of_flow_.resize(trace.size());
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const GpuPair p = trace[i].pair();
    auto [it, inserted] =
        id_of_.emplace(p, static_cast<std::uint32_t>(pairs_.size()));
    if (inserted) {
      pairs_.push_back(p);
      counts.push_back(0);
    }
    pair_of_flow_[i] = it->second;
    ++counts[it->second];
  }
  offsets_.assign(pairs_.size() + 1, 0);
  for (std::size_t id = 0; id < pairs_.size(); ++id) {
    offsets_[id + 1] = offsets_[id] + counts[id];
  }
  positions_.resize(trace.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    positions_[cursor[pair_of_flow_[i]]++] = i;
  }
}

namespace {

/// splitmix64 finalizer — the same mix std::hash<GpuPair> uses, so bucket
/// spread matches the proven pair-hash quality.
inline std::uint64_t mix64(std::uint64_t k) {
  k += 0x9e3779b97f4a7c15ULL;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

}  // namespace

PairIndex::PairIndex(const FlowView& view, ThreadPool* pool) {
  const std::size_t n = view.size();
  pair_of_flow_.resize(n);
  if (n == 0) {
    offsets_.assign(1, 0);
    return;
  }

  // 1) Radix partition flow positions by the high bits of the mixed pair
  //    key: a chunked count, prefix and scatter. The bucket count depends
  //    on n alone, and a ChunkedScatter places every row where the serial
  //    stable scatter would, so each bucket lists its positions in trace
  //    order at any thread count. Each bucket then holds a cache-sized
  //    slice to group, instead of the whole trace hammering one hash table.
  const std::size_t want = std::max<std::size_t>(std::size_t{1}, n / 48);
  const std::size_t num_buckets =
      std::min<std::size_t>(std::size_t{1} << 16, std::bit_ceil(want));
  const int shift = 64 - std::countr_zero(num_buckets);
  const auto bucket_of = [shift](std::uint64_t key) -> std::size_t {
    return shift >= 64 ? 0 : mix64(key) >> shift;
  };

  struct Entry {
    std::uint64_t key;
    std::uint32_t pos;
  };
  std::vector<std::uint64_t> keys(n);
  ChunkedScatter<std::uint32_t> layout(pool, n, num_buckets);
  layout.for_each_chunk([&](std::size_t c, std::size_t begin,
                            std::size_t end) {
    std::uint32_t* const counts = layout.counts(c).data();
    for (std::size_t i = begin; i < end; ++i) {
      keys[i] = view.pair_key(i);
      ++counts[bucket_of(keys[i])];
    }
  });
  const std::vector<std::uint32_t> bucket_offsets = layout.prefix();
  std::vector<Entry> scatter(n);
  layout.scatter([&](std::size_t, std::size_t begin, std::size_t end,
                     std::vector<std::uint32_t>& cursor) {
    for (std::size_t i = begin; i < end; ++i) {
      scatter[cursor[bucket_of(keys[i])]++] = {
          keys[i], static_cast<std::uint32_t>(i)};
    }
  });

  // 2) Group each bucket by key, one task per bucket group. After sorting
  //    by (key, pos) every run of equal keys lists that pair's positions in
  //    trace order, and the run head is the pair's first appearance.
  struct Run {
    std::uint32_t begin;  ///< offset into `scatter`
    std::uint32_t count;
  };
  constexpr std::size_t kBucketsPerTask = 64;
  const std::size_t tasks = (num_buckets + kBucketsPerTask - 1) /
                            kBucketsPerTask;
  std::vector<std::vector<Run>> task_runs(tasks);
  std::vector<std::uint32_t> bucket_runs(num_buckets + 1, 0);
  parallel_for(pool, tasks, [&](std::size_t t) {
    const std::size_t b_end = std::min(num_buckets, (t + 1) * kBucketsPerTask);
    for (std::size_t b = t * kBucketsPerTask; b < b_end; ++b) {
      const std::size_t lo = bucket_offsets[b];
      const std::size_t hi = bucket_offsets[b + 1];
      if (lo == hi) continue;
      // (key, pos) is a total order, so skipping the sort of an already
      // ordered bucket (one pair: the stable scatter left it in position
      // order) gives the same bucket.
      const auto entry_less = [](const Entry& a, const Entry& c) {
        if (a.key != c.key) return a.key < c.key;
        return a.pos < c.pos;
      };
      if (!std::is_sorted(scatter.begin() + lo, scatter.begin() + hi,
                          entry_less)) {
        std::sort(scatter.begin() + lo, scatter.begin() + hi, entry_less);
      }
      std::size_t run_begin = lo;
      for (std::size_t i = lo + 1; i <= hi; ++i) {
        if (i == hi || scatter[i].key != scatter[run_begin].key) {
          task_runs[t].push_back({static_cast<std::uint32_t>(run_begin),
                                  static_cast<std::uint32_t>(i - run_begin)});
          ++bucket_runs[b + 1];
          run_begin = i;
        }
      }
    }
  });
  // Runs in bucket order; bucket b's runs are [bucket_runs[b],
  // bucket_runs[b + 1]).
  std::vector<Run> runs;
  for (const std::vector<Run>& r : task_runs) {
    runs.insert(runs.end(), r.begin(), r.end());
  }
  for (std::size_t b = 0; b < num_buckets; ++b) {
    bucket_runs[b + 1] += bucket_runs[b];
  }

  // 3) Dense ids in first-appearance order: rank runs by their head
  //    position (cost is O(P log P) over pairs, not flows; head positions
  //    are distinct, so the order is total).
  std::vector<std::uint32_t> run_of_id(runs.size());
  std::iota(run_of_id.begin(), run_of_id.end(), 0u);
  std::sort(run_of_id.begin(), run_of_id.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return scatter[runs[a].begin].pos < scatter[runs[b].begin].pos;
            });
  std::vector<std::uint32_t> id_of_run(runs.size());
  pairs_.reserve(runs.size());
  id_of_.reserve(runs.size());
  offsets_.assign(runs.size() + 1, 0);
  for (std::size_t id = 0; id < runs.size(); ++id) {
    const Run& run = runs[run_of_id[id]];
    id_of_run[run_of_id[id]] = static_cast<std::uint32_t>(id);
    const std::uint64_t key = scatter[run.begin].key;
    const GpuPair p(GpuId(static_cast<std::uint32_t>(key >> 32)),
                    GpuId(static_cast<std::uint32_t>(key)));
    pairs_.push_back(p);
    id_of_.emplace(p, static_cast<std::uint32_t>(id));
    offsets_[id + 1] = offsets_[id] + run.count;
  }

  // 4) Positions: each pair copies its run into its own contiguous slice.
  positions_.resize(n);
  parallel_for(pool, runs.size(), [&](std::size_t id) {
    const Run& run = runs[run_of_id[id]];
    std::size_t cursor = offsets_[id];
    for (std::uint32_t e = run.begin; e < run.begin + run.count; ++e) {
      positions_[cursor++] = scatter[e].pos;
    }
  });
  // 5) pair_of_flow_ by row chunk (a per-pair fill would interleave its
  //    writes with every other pair's): each row finds its key among its
  //    bucket's runs, usually the only one.
  for_each_row_chunk(pool, n, [&](std::size_t, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t b = bucket_of(keys[i]);
      std::uint32_t r = bucket_runs[b];
      while (scatter[runs[r].begin].key != keys[i]) ++r;
      pair_of_flow_[i] = id_of_run[r];
    }
  });
}

std::unordered_map<SwitchId, std::vector<std::size_t>> build_switch_index(
    const FlowTrace& trace) {
  std::unordered_map<SwitchId, std::vector<std::size_t>> index;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    for (const SwitchId sw : trace[i].switches) {
      index[sw].push_back(i);
    }
  }
  return index;
}

std::unordered_set<GpuId> endpoints(const FlowTrace& trace) {
  std::unordered_set<GpuId> out;
  for (const FlowRecord& f : trace) {
    out.insert(f.src);
    out.insert(f.dst);
  }
  return out;
}

std::vector<GpuPair> communication_pairs(const FlowTrace& trace) {
  std::unordered_set<GpuPair> seen;
  std::vector<GpuPair> out;
  for (const FlowRecord& f : trace) {
    if (seen.insert(f.pair()).second) out.push_back(f.pair());
  }
  return out;
}

}  // namespace llmprism
