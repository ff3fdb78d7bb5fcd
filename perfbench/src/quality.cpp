#include "quality.hpp"

#include <algorithm>
#include <unordered_set>

#include "llmprism/baseline/eval.hpp"

namespace perfbench {

using namespace llmprism;

namespace {

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::vector<GpuId> sorted_gpus(std::vector<GpuId> gpus) {
  std::sort(gpus.begin(), gpus.end());
  return gpus;
}

bool steps_overlap(const AttributedIncident& incident, std::uint32_t begin,
                   std::uint32_t end) {
  return incident.step_begin <= end + 1 && incident.step_end + 1 >= begin;
}

/// GPUs a straggler on `rank` may be blamed on: its TP stage group (TP
/// traffic is intra-machine, so the stage is the finest flow-visible
/// answer).
bool in_stage(const JobTruth& truth, const ParallelismConfig& par,
              std::uint32_t rank, GpuId gpu) {
  const RankMap map(par);
  const RankCoord c = map.coord_of(RankId(rank));
  for (const RankId r : map.tp_group(c.dp_idx, c.pp_idx)) {
    if (truth.gpus[r.value()] == gpu) return true;
  }
  return false;
}

/// Members of a DP ring, ascending — comparable to a recovered component.
std::vector<GpuId> ring_gpus(const JobTruth& truth, const ParallelismConfig& par,
                             const SlowDpGroupSpec& ring) {
  std::vector<GpuId> gpus;
  for (const RankId r : RankMap(par).dp_group(ring.tp_idx, ring.pp_idx)) {
    gpus.push_back(truth.gpus[r.value()]);
  }
  std::sort(gpus.begin(), gpus.end());
  return gpus;
}

/// The incident whose top culprit names `fault` correctly, if any: ring
/// faults must name the DP component equal to the ring, switch faults the
/// switch.
const AttributedIncident* top1_match(const PrismReport& report,
                                     const SimWindow& window,
                                     const InjectedFault& fault,
                                     const std::vector<std::ptrdiff_t>& job_of) {
  const bool cluster_level = fault.kind == InjectedFault::Kind::kSwitch;
  const std::ptrdiff_t job = cluster_level ? -1 : job_of[fault.job];
  if (!cluster_level && job < 0) return nullptr;
  for (const AttributedIncident& incident : report.attribution.incidents) {
    if (incident.culprits.empty()) continue;
    const Culprit& top = incident.culprits.front();
    if (cluster_level) {
      if (top.kind == CulpritKind::kSwitch && top.switch_id == fault.switch_id) {
        return &incident;
      }
      continue;
    }
    if (incident.job.value() != static_cast<std::uint32_t>(job)) continue;
    const JobTruth& truth = window.sim.jobs[fault.job];
    if (fault.kind == InjectedFault::Kind::kStraggler) {
      if (top.kind == CulpritKind::kRank &&
          steps_overlap(incident, fault.straggler.step_begin,
                        fault.straggler.step_end) &&
          in_stage(truth, fault.parallelism, fault.straggler.rank, top.gpu)) {
        return &incident;
      }
      continue;
    }
    if (top.kind != CulpritKind::kDpGroup ||
        !steps_overlap(incident, fault.ring.step_begin, fault.ring.step_end)) {
      continue;
    }
    const auto& components =
        report.jobs[static_cast<std::size_t>(job)].comm_types.dp_components;
    if (top.dp_group_index < components.size() &&
        components[top.dp_group_index] ==
            ring_gpus(truth, fault.parallelism, fault.ring)) {
      return &incident;
    }
  }
  return nullptr;
}

}  // namespace

double QualityCounts::pair_accuracy() const { return ratio(pairs_correct_, pairs_); }
double QualityCounts::step_recall() const { return ratio(steps_matched_, steps_true_); }
double QualityCounts::step_error_pct() const {
  return steps_matched_ == 0
             ? 0.0
             : 100.0 * duration_error_sum_ / static_cast<double>(steps_matched_);
}
double QualityCounts::attribution_top1() const { return ratio(top1_, faults_); }
double QualityCounts::incident_precision() const {
  return ratio(incidents_matched_, incidents_);
}

QualityCounts& QualityCounts::operator+=(const QualityCounts& o) {
  pairs_ += o.pairs_;
  pairs_correct_ += o.pairs_correct_;
  steps_true_ += o.steps_true_;
  steps_matched_ += o.steps_matched_;
  duration_error_sum_ += o.duration_error_sum_;
  faults_ += o.faults_;
  top1_ += o.top1_;
  incidents_ += o.incidents_;
  incidents_matched_ += o.incidents_matched_;
  return *this;
}

void QualityCounts::add_steps(const JobTruth& truth,
                              std::span<const GpuTimeline> timelines) {
  const TimelineScore score = score_timelines(timelines, truth);
  steps_matched_ += score.steps_matched;
  duration_error_sum_ +=
      score.mean_duration_error * static_cast<double>(score.steps_matched);
}

namespace {

/// Truth step boundaries of every rank (score_timelines counts only ranks
/// that reconstructed a step; a rank that found none must count too).
std::size_t truth_boundaries(const JobTruth& truth) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < truth.gpus.size(); ++r) {
    const std::size_t group = truth.dp_group_of_rank[r];
    if (group < truth.dp_group_spans.size()) {
      n += truth.dp_group_spans[group].size();
    }
  }
  return n;
}

}  // namespace

void QualityTally::add(const PrismReport& report, const SimWindow& window) {
  std::map<std::vector<GpuId>, std::size_t> recognized;
  for (std::size_t j = 0; j < report.jobs.size(); ++j) {
    recognized.emplace(report.jobs[j].job.gpus, j);
  }
  std::vector<std::ptrdiff_t> job_of(window.sim.jobs.size(), -1);
  for (std::size_t t = 0; t < window.sim.jobs.size(); ++t) {
    const JobTruth& truth = window.sim.jobs[t];
    pairs_ += truth.pair_types.size();
    steps_true_ += truth_boundaries(truth);
    const auto it = recognized.find(sorted_gpus(truth.gpus));
    if (it == recognized.end()) continue;
    job_of[t] = static_cast<std::ptrdiff_t>(it->second);
    const JobAnalysis& analysis = report.jobs[it->second];
    pairs_correct_ += score_comm_type(analysis.comm_types.pairs, truth).correct;
    add_steps(truth, analysis.timelines);
  }

  std::unordered_set<const AttributedIncident*> matched;
  for (const InjectedFault& fault : window.faults) {
    ++faults_;
    if (const AttributedIncident* m = top1_match(report, window, fault, job_of)) {
      ++top1_;
      matched.insert(m);
    }
  }
  incidents_ += report.attribution.incidents.size();
  incidents_matched_ += matched.size();
}

StreamQuality::StreamQuality(const std::vector<StreamTenant>& tenants)
    : tenants_(tenants), steps_(tenants.size()) {
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    by_gpus_[sorted_gpus(tenants[t].truth.gpus)].push_back(t);
  }
}

void StreamQuality::add(const PrismReport& report, TimeWindow window) {
  analyzed_end_ = std::max(analyzed_end_, window.end);
  incidents_ += report.attribution.incidents.size();
  std::unordered_set<const AttributedIncident*> matched;
  for (std::size_t j = 0; j < report.jobs.size(); ++j) {
    const auto it = by_gpus_.find(report.jobs[j].job.gpus);
    if (it == by_gpus_.end()) continue;
    // The same machines may host a tenant in several epochs: take the one
    // running during this window.
    std::ptrdiff_t tenant = -1;
    for (const std::size_t t : it->second) {
      const auto& steps = tenants_[t].truth.steps;
      if (!steps.empty() && steps.front().begin < window.end &&
          tenants_[t].end > window.begin) {
        tenant = static_cast<std::ptrdiff_t>(t);
      }
    }
    if (tenant < 0) continue;
    const StreamTenant& st = tenants_[static_cast<std::size_t>(tenant)];
    const JobAnalysis& analysis = report.jobs[j];
    const CommTypeScore pairs = score_comm_type(analysis.comm_types.pairs, st.truth);
    pairs_ += pairs.total_pairs;
    pairs_correct_ += pairs.correct;
    auto& merged = steps_[static_cast<std::size_t>(tenant)];
    for (const GpuTimeline& tl : analysis.timelines) {
      auto& steps = merged[tl.gpu];
      steps.insert(steps.end(), tl.steps.begin(), tl.steps.end());
    }
    // A window hands its trailing step to the next one: allow one window.
    auto overlaps = [&](std::uint32_t first, std::uint32_t last) {
      const TimeNs begin = st.truth.steps[first].begin;
      const TimeNs end = st.truth.steps[last].end;
      return begin < window.end && end + (window.end - window.begin) > window.begin;
    };
    const auto& components = analysis.comm_types.dp_components;
    for (const AttributedIncident& incident : report.attribution.incidents) {
      if (incident.culprits.empty() || incident.job.value() != j) continue;
      const Culprit& top = incident.culprits.front();
      for (std::size_t f = 0; f < st.stragglers.size(); ++f) {
        const StragglerSpec& spec = st.stragglers[f];
        if (top.kind == CulpritKind::kRank &&
            overlaps(spec.step_begin, spec.step_end) &&
            in_stage(st.truth, st.parallelism, spec.rank, top.gpu)) {
          hit_.emplace(static_cast<std::size_t>(tenant), f);
          matched.insert(&incident);
        }
      }
      for (std::size_t f = 0; f < st.rings.size(); ++f) {
        const SlowDpGroupSpec& spec = st.rings[f];
        if (top.kind == CulpritKind::kDpGroup &&
            overlaps(spec.step_begin, spec.step_end) &&
            top.dp_group_index < components.size() &&
            components[top.dp_group_index] ==
                ring_gpus(st.truth, st.parallelism, spec)) {
          hit_.emplace(static_cast<std::size_t>(tenant), st.stragglers.size() + f);
          matched.insert(&incident);
        }
      }
    }
  }
  incidents_matched_ += matched.size();
}

void StreamQuality::finish() {
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const StreamTenant& st = tenants_[t];
    if (st.truth.steps.empty() || st.truth.steps.back().end > analyzed_end_) {
      continue;  // not wholly inside the analyzed part of the feed
    }
    steps_true_ += truth_boundaries(st.truth);
    std::vector<GpuTimeline> timelines;
    for (auto& [gpu, steps] : steps_[t]) {
      std::sort(steps.begin(), steps.end(),
                [](const ReconstructedStep& a, const ReconstructedStep& b) {
                  return a.end < b.end;
                });
      timelines.push_back({gpu, {}, std::move(steps)});
    }
    add_steps(st.truth, timelines);
    for (std::size_t f = 0; f < st.stragglers.size() + st.rings.size(); ++f) {
      ++faults_;
      top1_ += hit_.contains({t, f});
    }
  }
}

}  // namespace perfbench
