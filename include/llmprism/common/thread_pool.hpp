// A minimal shared-work-queue thread pool for the analysis side's fan-out
// loops (per-job analysis in Prism::analyze, per-window analysis in
// OnlineMonitor::ingest).
//
// Design constraints (see DESIGN.md, "Concurrency model"):
//  * parallel_for is the primitive; ChunkedScatter builds the per-flow
//    counting gathers on it. Deterministic results fall out of the usage
//    discipline: every task owns a pre-sized output slot indexed by its
//    loop index and shares no mutable state, so scheduling order cannot
//    influence the result.
//  * The calling thread always participates in the loop, so a pool with
//    zero workers degenerates to the plain sequential in-order loop — the
//    num_threads = 1 legacy path is literally the same code, and progress
//    never depends on a free worker. This also makes nested or concurrent
//    parallel_for calls (several OnlineMonitor windows each fanning out
//    their jobs) deadlock-free on shared or separate pools.
//  * Exceptions thrown by an iteration are captured and rethrown on the
//    calling thread once the loop has drained (first one wins).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace llmprism {

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is valid: every loop then runs
  /// inline on the calling thread).
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  /// Threads a loop can occupy: workers plus the calling thread.
  [[nodiscard]] std::size_t concurrency() const { return workers_.size() + 1; }

  /// Resolve a `num_threads` config knob: 0 -> one thread per hardware
  /// thread (at least 1), anything else -> the requested count.
  [[nodiscard]] static std::size_t resolve(std::size_t requested);

  /// Run fn(i) for every i in [0, n). Blocks until all iterations are done;
  /// the calling thread works alongside the pool. Safe to call from several
  /// threads at once and from inside another pool's loop.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// Convenience wrapper: fan out on `pool`, or run the exact sequential
/// in-order loop when `pool` is null (the single-threaded configuration).
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Rows per chunk of a chunked per-flow pass. A constant, never derived
/// from the thread count: the chunking decides only which task handles a
/// row, never where its output lands (see ChunkedScatter).
inline constexpr std::size_t kScatterChunkRows = 8192;

/// Chunks of a per-flow pass over rows [0, n): kScatterChunkRows rows
/// each on a pool, one chunk spanning every row (the serial loop) without.
[[nodiscard]] std::size_t num_row_chunks(const ThreadPool* pool,
                                         std::size_t n);

/// Run fn(chunk, begin, end) for every chunk of rows [0, n), on `pool`
/// when there is one. Tasks may touch only their own chunk's slots.
void for_each_row_chunk(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Deterministic chunk-parallel counting scatter over rows [0, n) — the
/// per-flow gathers' counterpart of parallel_for (DESIGN.md §5):
///  1. the rows are cut into chunks of kScatterChunkRows (one chunk
///     spanning every row when `pool` is null);
///  2. each chunk counts its rows per bucket into its own row of integer
///     counts (count tasks may widen their row when they meet a bucket
///     past it, so a max-id pass folds into the count);
///  3. prefix() takes the exclusive prefix in (bucket, chunk) order, which
///     turns every chunk's counts into the first output position of its
///     share of each bucket;
///  4. each chunk scatters through a private copy of those cursors.
/// Every output position is a function of integer counts alone, so the
/// layout is the serial loop's at any chunking; with a null pool it IS the
/// serial loop. Several scatters with the same `pool` and `n` share the
/// chunking, so one pass may fill several (e.g. row and hop counts).
template <typename Count>
class ChunkedScatter {
 public:
  ChunkedScatter(ThreadPool* pool, std::size_t n, std::size_t num_buckets)
      : pool_(pool),
        n_(n),
        num_buckets_(num_buckets),
        rows_(num_row_chunks(pool, n),
              std::vector<Count>(num_buckets, Count{0})) {}

  [[nodiscard]] std::size_t num_chunks() const { return rows_.size(); }
  /// Bucket count: the constructor's, or after prefix() the widest row.
  [[nodiscard]] std::size_t num_buckets() const { return num_buckets_; }

  /// for_each_row_chunk over this scatter's rows and pool.
  void for_each_chunk(
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn)
      const {
    for_each_row_chunk(pool_, n_, fn);
  }

  /// Chunk `c`'s bucket row: its counts before prefix(), the first output
  /// position of its share of every bucket after.
  [[nodiscard]] std::vector<Count>& counts(std::size_t c) { return rows_[c]; }

  /// Step 3: exclusive prefix in (bucket, chunk) order over rows padded to
  /// the widest one. Returns the bucket offsets (num_buckets() + 1
  /// entries): bucket b occupies [offsets[b], offsets[b + 1]).
  std::vector<Count> prefix() {
    for (const std::vector<Count>& row : rows_) {
      num_buckets_ = std::max(num_buckets_, row.size());
    }
    for (std::vector<Count>& row : rows_) row.resize(num_buckets_, Count{0});
    std::vector<Count> offsets(num_buckets_ + 1, Count{0});
    Count running{0};
    for (std::size_t b = 0; b < num_buckets_; ++b) {
      offsets[b] = running;
      for (std::vector<Count>& row : rows_) {
        const Count count = row[b];
        row[b] = running;
        running += count;
      }
    }
    offsets[num_buckets_] = running;
    return offsets;
  }

  /// Step 4: fn(chunk, begin, end, cursors) for every chunk, `cursors` a
  /// private copy of the chunk's first positions that fn advances. The
  /// rows themselves are left untouched, so a layout can serve several
  /// scatters.
  void scatter(const std::function<void(std::size_t, std::size_t, std::size_t,
                                        std::vector<Count>&)>& fn) const {
    for_each_chunk([&](std::size_t c, std::size_t begin, std::size_t end) {
      std::vector<Count> cursors = rows_[c];
      fn(c, begin, end, cursors);
    });
  }

 private:
  ThreadPool* pool_;
  std::size_t n_;
  std::size_t num_buckets_;
  std::vector<std::vector<Count>> rows_;
};

}  // namespace llmprism
