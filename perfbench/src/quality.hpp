// Diagnosis-quality scoring of analysis reports against simulator truth:
// Table I pair accuracy, step-boundary recall and duration error, and
// root-cause attribution top-1 / incident precision (scored as the
// repository's attribution evaluation scores them).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "inputs.hpp"
#include "llmprism/core/prism.hpp"

namespace perfbench {

/// The five quality metrics over accumulated counts.
class QualityCounts {
 public:
  [[nodiscard]] double pair_accuracy() const;
  [[nodiscard]] double step_recall() const;
  [[nodiscard]] double step_error_pct() const;
  [[nodiscard]] double attribution_top1() const;
  [[nodiscard]] double incident_precision() const;

  QualityCounts& operator+=(const QualityCounts& other);

 protected:
  std::size_t pairs_ = 0;          ///< scored truth pairs
  std::size_t pairs_correct_ = 0;
  std::size_t steps_true_ = 0;     ///< truth step boundaries, all ranks
  std::size_t steps_matched_ = 0;
  double duration_error_sum_ = 0;  ///< mean error x matched steps
  std::size_t faults_ = 0;
  std::size_t top1_ = 0;
  std::size_t incidents_ = 0;
  std::size_t incidents_matched_ = 0;

  /// Add one job's step score (score_timelines) to the step counts.
  void add_steps(const llmprism::JobTruth& truth,
                 std::span<const llmprism::GpuTimeline> timelines);
};

/// One-shot windows (the *-window workloads): every simulated job's truth
/// pairs and step boundaries count, recognized or not.
class QualityTally : public QualityCounts {
 public:
  void add(const llmprism::PrismReport& report, const SimWindow& window);
};

/// A streamed feed (fleet-stream), scored window by window. Pair accuracy
/// covers the pairs each window classifies for a recognized tenant. Step
/// boundaries are scored per tenant over the whole feed, because a window
/// hands its trailing step to the next one. A fault counts as attributed
/// when a window overlapping its steps ranks it first — a GPU of the
/// straggler's TP stage, or the slow ring's DP component (window-relative
/// step indices are not the tenant's).
class StreamQuality : public QualityCounts {
 public:
  explicit StreamQuality(const std::vector<StreamTenant>& tenants);
  void add(const llmprism::PrismReport& report, llmprism::TimeWindow window);
  /// Score the merged step timelines and stragglers; call once at the end.
  void finish();

 private:
  const std::vector<StreamTenant>& tenants_;
  std::map<std::vector<llmprism::GpuId>, std::vector<std::size_t>> by_gpus_;
  /// Reconstructed steps per tenant and GPU, merged across windows.
  std::vector<std::unordered_map<llmprism::GpuId,
                                 std::vector<llmprism::ReconstructedStep>>>
      steps_;
  /// Faults attributed, as (tenant, fault index): stragglers first, then
  /// rings.
  std::set<std::pair<std::size_t, std::size_t>> hit_;
  llmprism::TimeNs analyzed_end_ = 0;
};

}  // namespace perfbench
