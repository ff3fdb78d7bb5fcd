#include "llmprism/core/flow_router.hpp"

#include <algorithm>

#include "llmprism/common/thread_pool.hpp"

namespace llmprism {

namespace {

/// Size gather targets: target t gets rows[t] rows and hops[t] switch
/// entries, zeroed (so switch_offsets[0] = 0). The zero fill is
/// memory-bound and every column is an independent vector, so one task
/// per (target, column) spreads it over the pool.
void size_columns(std::span<FlowColumns> targets,
                  const std::vector<std::size_t>& rows,
                  const std::vector<std::uint64_t>& hops, ThreadPool* pool) {
  constexpr std::size_t kColumns = 7;
  parallel_for(pool, targets.size() * kColumns, [&](std::size_t k) {
    FlowColumns& cols = targets[k / kColumns];
    const std::size_t n = rows[k / kColumns];
    switch (k % kColumns) {
      case 0: cols.start_ns.resize(n); break;
      case 1: cols.src.resize(n); break;
      case 2: cols.dst.resize(n); break;
      case 3: cols.bytes.resize(n); break;
      case 4: cols.duration_ns.resize(n); break;
      case 5: cols.switch_offsets.resize(n + 1); break;
      default: cols.switch_ids.resize(hops[k / kColumns]); break;
    }
  });
}

}  // namespace

FlowRouter::FlowRouter(std::span<const RecognizedJob> jobs)
    : num_jobs_(jobs.size()) {
  std::uint32_t max_gpu = 0;
  bool any = false;
  for (const RecognizedJob& job : jobs) {
    for (const GpuId g : job.gpus) {
      max_gpu = std::max(max_gpu, g.value());
      any = true;
    }
  }
  if (!any) return;
  job_of_gpu_.assign(static_cast<std::size_t>(max_gpu) + 1, kUnattributed);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const GpuId g : jobs[j].gpus) {
      std::size_t& slot = job_of_gpu_[g.value()];
      if (slot == kUnattributed) slot = j;
    }
  }
}

FlowRouter::Result FlowRouter::route(const FlowView& view,
                                     ThreadPool* pool) const {
  Result result;
  result.job_columns.resize(num_jobs_);
  const std::size_t n = view.size();
  result.job_of_flow.resize(n);
  result.row_in_job.resize(n);

  // Pass 1, chunked: resolve each row's job once (src, dst fallback),
  // counting rows and switch hops per job in every chunk, so pass 2 writes
  // exactly-sized columns by index.
  ChunkedScatter<std::uint32_t> rows(pool, n, num_jobs_);
  ChunkedScatter<std::uint64_t> hops(pool, n, num_jobs_);
  struct Tally {
    std::uint64_t routed = 0;
    std::uint64_t via_dst = 0;
    std::uint64_t unattributed = 0;
  };
  std::vector<Tally> tallies(rows.num_chunks());
  const bool have_hops = !view.switch_offsets.empty();
  rows.for_each_chunk([&](std::size_t c, std::size_t begin,
                          std::size_t end) {
    std::uint32_t* const row_counts = rows.counts(c).data();
    std::uint64_t* const hop_counts = hops.counts(c).data();
    Tally tally;  // local: neighbouring chunks' slots share cache lines
    for (std::size_t i = begin; i < end; ++i) {
      std::size_t j = job_of(GpuId(view.src[i]));
      if (j == kUnattributed) {
        j = job_of(GpuId(view.dst[i]));
        if (j == kUnattributed) {
          result.job_of_flow[i] = kNoJob;
          ++tally.unattributed;
          continue;
        }
        ++tally.via_dst;
      }
      result.job_of_flow[i] = static_cast<std::uint32_t>(j);
      ++row_counts[j];
      if (have_hops) {
        hop_counts[j] += view.switch_offsets[i + 1] - view.switch_offsets[i];
      }
      ++tally.routed;
    }
    tallies[c] = tally;
  });
  for (const Tally& tally : tallies) {
    result.flows_routed += tally.routed;
    result.flows_routed_via_dst += tally.via_dst;
    result.flows_unattributed += tally.unattributed;
  }
  const std::vector<std::uint32_t> row_offsets = rows.prefix();
  const std::vector<std::uint64_t> hop_offsets = hops.prefix();
  std::vector<std::size_t> job_rows(num_jobs_);
  std::vector<std::uint64_t> job_hops(num_jobs_);
  for (std::size_t j = 0; j < num_jobs_; ++j) {
    job_rows[j] = row_offsets[j + 1] - row_offsets[j];
    job_hops[j] = hop_offsets[j + 1] - hop_offsets[j];
  }
  size_columns(result.job_columns, job_rows, job_hops, pool);

  // Pass 2, chunked: indexed stores. Input order is preserved within each
  // job, so a sorted view yields born-sorted per-job columns.
  rows.scatter([&](std::size_t c, std::size_t begin, std::size_t end,
                   std::vector<std::uint32_t>& cursor) {
    std::vector<std::uint64_t> hop_cursor = hops.counts(c);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t j = result.job_of_flow[i];
      if (j == kNoJob) continue;
      const std::uint32_t pos = cursor[j]++ - row_offsets[j];
      result.row_in_job[i] = pos;
      FlowColumns& cols = result.job_columns[j];
      cols.start_ns[pos] = view.start_ns[i];
      cols.src[pos] = view.src[i];
      cols.dst[pos] = view.dst[i];
      cols.bytes[pos] = view.bytes[i];
      cols.duration_ns[pos] = view.duration_ns[i];
      std::uint64_t hop = hop_cursor[j] - hop_offsets[j];
      for (const std::uint32_t sw : view.switches(i)) {
        cols.switch_ids[hop++] = sw;
      }
      hop_cursor[j] = hop + hop_offsets[j];
      cols.switch_offsets[pos + 1] = hop;
    }
  });
  for (FlowColumns& cols : result.job_columns) {
    cols.sorted = view.sorted || cols.view().verify_sorted();
  }
  return result;
}

FlowColumns FlowRouter::gather_dp_flows(
    const FlowView& view, const Result& routed,
    std::span<const std::vector<CommType>> job_flow_types, ThreadPool* pool) {
  const std::size_t n = view.size();
  const auto is_dp = [&](std::size_t i) {
    const std::uint32_t j = routed.job_of_flow[i];
    return j != kNoJob &&
           job_flow_types[j][routed.row_in_job[i]] == CommType::kDP;
  };
  // One bucket: the count sizes the output and hands every chunk its
  // first row and first hop, so chunks write disjoint ranges.
  ChunkedScatter<std::uint32_t> rows(pool, n, 1);
  ChunkedScatter<std::uint64_t> hops(pool, n, 1);
  const bool have_hops = !view.switch_offsets.empty();
  rows.for_each_chunk([&](std::size_t c, std::size_t begin,
                          std::size_t end) {
    std::uint32_t kept = 0;
    std::uint64_t kept_hops = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (!is_dp(i)) continue;
      ++kept;
      if (have_hops) {
        kept_hops += view.switch_offsets[i + 1] - view.switch_offsets[i];
      }
    }
    rows.counts(c)[0] = kept;
    hops.counts(c)[0] = kept_hops;
  });
  const std::size_t total = rows.prefix()[1];
  const std::uint64_t total_hops = hops.prefix()[1];

  FlowColumns out;
  size_columns(std::span<FlowColumns>(&out, 1), {total}, {total_hops}, pool);
  rows.scatter([&](std::size_t c, std::size_t begin, std::size_t end,
                   std::vector<std::uint32_t>& cursor) {
    std::uint32_t pos = cursor[0];
    std::uint64_t hop = hops.counts(c)[0];
    for (std::size_t i = begin; i < end; ++i) {
      if (!is_dp(i)) continue;
      out.start_ns[pos] = view.start_ns[i];
      out.src[pos] = view.src[i];
      out.dst[pos] = view.dst[i];
      out.bytes[pos] = view.bytes[i];
      out.duration_ns[pos] = view.duration_ns[i];
      for (const std::uint32_t sw : view.switches(i)) {
        out.switch_ids[hop++] = sw;
      }
      out.switch_offsets[++pos] = hop;
    }
  });
  out.sorted = view.sorted || out.view().verify_sorted();
  return out;
}

}  // namespace llmprism
