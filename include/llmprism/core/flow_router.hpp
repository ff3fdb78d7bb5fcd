// Flow routing: attribute every flow of a cluster trace to the recognized
// job that owns its endpoints.
//
// GPU ids are dense (see topology), so the routing table is a flat
// vector indexed by GPU id — one load per lookup instead of a hash probe
// per flow. Routing scans the columns and preserves their order, which
// is what lets the per-job pipeline skip re-sorting: a sorted input view
// yields per-job columns that are born sorted (their `sorted` flag is set
// without a re-verify).
//
// A flow is routed by its src GPU; when the src is unattributed (e.g. a
// half-recognized job, or a recognizer that excluded the src) the dst is
// tried before declaring the flow unattributed — a src-only lookup would
// silently drop flows whose dst a recognized job owns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "llmprism/common/comm_type.hpp"
#include "llmprism/core/job_recognition.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

class ThreadPool;

class FlowRouter {
 public:
  /// No job owns the GPU.
  static constexpr std::size_t kUnattributed = SIZE_MAX;

  /// Intern the jobs' GPU sets into the dense table. When two jobs claim
  /// one GPU (the recognizer never produces this), the lower job index
  /// wins.
  explicit FlowRouter(std::span<const RecognizedJob> jobs);

  /// Job index owning `gpu`, or kUnattributed.
  [[nodiscard]] std::size_t job_of(GpuId gpu) const {
    const std::size_t g = static_cast<std::size_t>(gpu.value());
    return g < job_of_gpu_.size() ? job_of_gpu_[g] : kUnattributed;
  }

  /// job_of_flow entry of a flow no job claims.
  static constexpr std::uint32_t kNoJob = 0xffffffffu;

  struct Result {
    /// Per-job columns, input order preserved within each job (born sorted
    /// when the input view is sorted — a subsequence of a sorted sequence).
    std::vector<FlowColumns> job_columns;
    /// Per input row: the job it was routed to (kNoJob when unattributed)
    /// and its position in that job's columns (unspecified for kNoJob).
    std::vector<std::uint32_t> job_of_flow;
    std::vector<std::uint32_t> row_in_job;
    std::uint64_t flows_routed = 0;
    /// Of flows_routed: flows whose src was unattributed and that were
    /// recovered through the dst lookup.
    std::uint64_t flows_routed_via_dst = 0;
    std::uint64_t flows_unattributed = 0;
  };

  /// Route every flow of `view` to its job: two chunked passes over the
  /// src/dst columns (count per job, prefix-size the targets, then indexed
  /// stores) without ever materializing a FlowRecord. The chunks run on
  /// `pool` when one is given; the result is the same at any thread count.
  [[nodiscard]] Result route(const FlowView& view,
                             ThreadPool* pool = nullptr) const;

  /// The routed rows of `view` whose per-job flow type is DP
  /// (`job_flow_types[j]` holds one CommType per row of job j's columns),
  /// gathered in input order by one chunked pass — the cluster-wide input
  /// of switch diagnosis. On a sorted view this equals the k-way merge of
  /// the per-job DP runs, ties to the lower job id: rows that tie under
  /// FlowStartTimeLess share src and dst, so they always route to the same
  /// job, and within one job the merge keeps input order (DESIGN.md §13).
  [[nodiscard]] static FlowColumns gather_dp_flows(
      const FlowView& view, const Result& routed,
      std::span<const std::vector<CommType>> job_flow_types,
      ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t num_jobs() const { return num_jobs_; }

 private:
  std::size_t num_jobs_ = 0;
  /// Dense GPU id -> job index (kUnattributed when unowned).
  std::vector<std::size_t> job_of_gpu_;
};

}  // namespace llmprism
