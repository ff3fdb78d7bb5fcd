// FlowTrace: a time-ordered collection of flow records plus the index
// structures the analysis phases need (per-pair, per-endpoint, per-switch).
//
// The data plane follows a sort-once discipline (DESIGN.md, "Flow data
// plane"): a trace is physically sorted at most once at the ingest
// boundary, and every later stage either preserves order (routing,
// windowing, merging) or verifies it. FlowTrace caches what it knows
// about its own ordering so sort() on an already-sorted trace is free,
// and sorted runs combine via O(N) merges instead of append + re-sort.
// Physical sorts are counted in `llmprism_flowtrace_sorts_total` so the
// discipline is observable, not assumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "llmprism/common/time.hpp"
#include "llmprism/flow/flow.hpp"

namespace llmprism {

struct FlowView;
class ThreadPool;

class FlowTrace {
 public:
  FlowTrace() = default;
  explicit FlowTrace(std::vector<FlowRecord> flows);

  /// Maintains the sortedness cache incrementally: appending a flow that
  /// is not before the current back keeps a sorted trace known-sorted.
  void add(FlowRecord flow);
  void reserve(std::size_t n) { flows_.reserve(n); }

  /// Append all flows of `other`. Sortedness stays known when both sides
  /// are known-sorted and the boundary is ordered; otherwise it becomes
  /// unknown until the next verify or sort.
  void append(const FlowTrace& other);

  /// Move-append: same sortedness semantics, but `other`'s storage is
  /// stolen (wholesale when this trace is empty). Used by the parallel
  /// CSV decoder to stitch per-chunk traces without copying records.
  void append(FlowTrace&& other);

  /// Sort by start time (ordering via FlowStartTimeLess). No-op on a
  /// trace that is already sorted; a physical sort increments the
  /// process-wide `llmprism_flowtrace_sorts_total` counter.
  void sort();

  /// True iff flows are in FlowStartTimeLess order. O(1) when the cache
  /// knows; otherwise one O(N) verify whose positive result is cached.
  [[nodiscard]] bool is_sorted() const;

  /// Merge a sorted `other` into this sorted trace in O(N + M). Both
  /// sides are sorted first if needed (no-ops when already sorted). Ties
  /// keep this trace's flows before `other`'s.
  void merge_sorted(FlowTrace other);

  /// K-way merge of sorted runs in O(N log K). Runs are sorted first if
  /// needed. Ties across runs resolve to the lower run index, so the
  /// result is deterministic in the runs' order.
  [[nodiscard]] static FlowTrace merge_sorted_runs(
      std::vector<FlowTrace> runs);

  /// Drop every flow with start_time < t. Requires a sorted trace
  /// (binary search); throws std::logic_error otherwise.
  void drop_before(TimeNs t);

  [[nodiscard]] std::size_t size() const { return flows_.size(); }
  [[nodiscard]] bool empty() const { return flows_.empty(); }
  [[nodiscard]] const FlowRecord& operator[](std::size_t i) const {
    return flows_[i];
  }
  [[nodiscard]] std::span<const FlowRecord> flows() const { return flows_; }
  [[nodiscard]] auto begin() const { return flows_.begin(); }
  [[nodiscard]] auto end() const { return flows_.end(); }

  /// Flows whose start time falls in [window.begin, window.end).
  /// Requires a sorted trace (binary search); throws otherwise.
  [[nodiscard]] FlowTrace window(TimeWindow w) const;

  /// Earliest start / latest end over all flows; {0,0} when empty.
  [[nodiscard]] TimeWindow span() const;

 private:
  struct SortedTag {};
  FlowTrace(std::vector<FlowRecord> flows, SortedTag)
      : flows_(std::move(flows)), sorted_(true) {}

  std::vector<FlowRecord> flows_;
  /// true = known sorted; false = unknown (verified on demand). Mutable
  /// so a successful is_sorted() verify can cache its result. Not a
  /// synchronization point: a FlowTrace is never mutated concurrently.
  mutable bool sorted_ = true;
};

/// CSR-style per-pair index over a trace: unordered GPU pairs are
/// interned to dense ids in first-appearance order, and each pair's flow
/// positions live contiguously in one flat array (trace order preserved
/// within a pair). Shared by comm-type identification, timeline
/// reconstruction, and noise injection, so the trace is scanned once
/// instead of each consumer rebuilding a map of vectors.
class PairIndex {
 public:
  static constexpr std::uint32_t kNoPair = 0xffffffffu;

  PairIndex() = default;
  explicit PairIndex(const FlowTrace& trace);
  /// Columnar build: radix-partitioned grouping (chunked counting pass +
  /// prefix sum + stable scatter over hash buckets) instead of per-flow
  /// unordered_map interning, with the per-bucket sorts and the per-pair
  /// fill on `pool` when one is given. Produces the identical index at any
  /// thread count — dense ids in first-appearance order, positions in
  /// trace order within each pair.
  explicit PairIndex(const FlowView& view, ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t num_pairs() const { return pairs_.size(); }
  [[nodiscard]] std::size_t num_flows() const { return pair_of_flow_.size(); }

  /// Pair for a dense id; ids run [0, num_pairs) in first-appearance order.
  [[nodiscard]] const GpuPair& pair(std::size_t id) const {
    return pairs_[id];
  }
  [[nodiscard]] const std::vector<GpuPair>& pairs() const { return pairs_; }

  /// Trace positions of a pair's flows, in trace order.
  [[nodiscard]] std::span<const std::size_t> positions(std::size_t id) const {
    return {positions_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }

  /// Dense id for a pair, or kNoPair if the pair never appears.
  [[nodiscard]] std::uint32_t id_of(GpuPair p) const {
    const auto it = id_of_.find(p);
    return it == id_of_.end() ? kNoPair : it->second;
  }

  /// Per trace position, the dense id of that flow's pair.
  [[nodiscard]] std::span<const std::uint32_t> pair_of_flow() const {
    return pair_of_flow_;
  }

 private:
  std::vector<GpuPair> pairs_;                       ///< id -> pair
  std::unordered_map<GpuPair, std::uint32_t> id_of_; ///< pair -> id
  std::vector<std::size_t> offsets_;                 ///< num_pairs + 1
  std::vector<std::size_t> positions_;               ///< flat, trace order
  std::vector<std::uint32_t> pair_of_flow_;          ///< per trace position
};

/// Flow indices grouped per switch traversed.
[[nodiscard]] std::unordered_map<SwitchId, std::vector<std::size_t>>
build_switch_index(const FlowTrace& trace);

/// All distinct GPU endpoints appearing in the trace.
[[nodiscard]] std::unordered_set<GpuId> endpoints(const FlowTrace& trace);

/// All distinct unordered communication pairs in the trace.
[[nodiscard]] std::vector<GpuPair> communication_pairs(const FlowTrace& trace);

}  // namespace llmprism
