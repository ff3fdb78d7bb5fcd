#include "llmprism/core/diagnosis.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "llmprism/common/stats.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/obs/metrics.hpp"

namespace llmprism {

namespace {

/// Consistency factor making the MAD estimate sigma for Gaussian data.
constexpr double kMadToSigma = 1.4826;

/// Registry counters for k-sigma work — looked up once, bulk-added once
/// per evaluated series (never per point).
struct KSigmaMetrics {
  obs::Counter& series;
  obs::Counter& points;
  obs::Counter& alerts;
};

KSigmaMetrics& ksigma_metrics() {
  static KSigmaMetrics metrics{
      obs::default_registry().counter(
          "llmprism_ksigma_series_total",
          "Series handed to the k-sigma rule (including abstentions)"),
      obs::default_registry().counter(
          "llmprism_ksigma_points_total",
          "Points scored by the k-sigma rule"),
      obs::default_registry().counter(
          "llmprism_ksigma_alerts_total",
          "Outliers reported by the k-sigma rule"),
  };
  return metrics;
}

/// Record one ksigma_outliers_* call in both telemetry channels.
void note_ksigma_call(std::size_t points_scored, std::size_t alerts,
                      KSigmaStats* stats) {
  KSigmaStats call;
  call.series = 1;
  call.points = points_scored;
  call.alerts = alerts;
  if (stats) *stats += call;
  KSigmaMetrics& metrics = ksigma_metrics();
  metrics.series.inc(call.series);
  metrics.points.inc(call.points);
  metrics.alerts.inc(call.alerts);
}

/// Reference statistics for scoring point i: either global or of all
/// points except i (leave-one-out).
struct Reference {
  double mean;   ///< center (mean, or median in kMad mode)
  double sigma;  ///< dispersion on the sigma scale
};

Reference global_reference(std::span<const double> xs, Dispersion d) {
  if (d == Dispersion::kStddev) return {stats::mean(xs), stats::stddev(xs)};
  return {stats::median(xs), kMadToSigma * stats::median_abs_deviation(xs)};
}

class ReferenceComputer {
 public:
  ReferenceComputer(std::span<const double> xs, const KSigmaConfig& config)
      : xs_(xs), config_(config) {
    if (!config.leave_one_out) {
      global_ = global_reference(xs, config.dispersion);
    } else if (config.dispersion == Dispersion::kStddev) {
      for (const double x : xs_) {
        sum_ += x;
        sum_sq_ += x * x;
      }
    }
  }

  [[nodiscard]] Reference at(std::size_t i) const {
    if (!config_.leave_one_out) return global_;
    const auto n = static_cast<double>(xs_.size() - 1);
    if (config_.dispersion == Dispersion::kStddev) {
      const double mean = (sum_ - xs_[i]) / n;
      const double var =
          std::max(0.0, (sum_sq_ - xs_[i] * xs_[i]) / n - mean * mean);
      return {mean, std::sqrt(var)};
    }
    // Robust leave-one-out: materialize the others (series are short in
    // the places this mode is used).
    std::vector<double> others;
    others.reserve(xs_.size() - 1);
    for (std::size_t j = 0; j < xs_.size(); ++j) {
      if (j != i) others.push_back(xs_[j]);
    }
    return global_reference(others, Dispersion::kMad);
  }

 private:
  std::span<const double> xs_;
  const KSigmaConfig& config_;
  Reference global_{};
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace

std::vector<std::size_t> ksigma_outliers_above(std::span<const double> xs,
                                               const KSigmaConfig& config,
                                               KSigmaStats* stats) {
  std::vector<std::size_t> out;
  if (xs.size() < config.min_samples) {
    note_ksigma_call(0, 0, stats);
    return out;
  }
  const ReferenceComputer refs(xs, config);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Reference r = refs.at(i);
    if (xs[i] > r.mean + config.k * r.sigma &&
        xs[i] > r.mean * (1.0 + config.min_relative_excess)) {
      out.push_back(i);
    }
  }
  note_ksigma_call(xs.size(), out.size(), stats);
  return out;
}

std::vector<std::size_t> ksigma_outliers_below(std::span<const double> xs,
                                               const KSigmaConfig& config,
                                               KSigmaStats* stats) {
  std::vector<std::size_t> out;
  if (xs.size() < config.min_samples) {
    note_ksigma_call(0, 0, stats);
    return out;
  }
  const ReferenceComputer refs(xs, config);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Reference r = refs.at(i);
    if (xs[i] < r.mean - config.k * r.sigma &&
        xs[i] < r.mean * (1.0 - config.min_relative_excess)) {
      out.push_back(i);
    }
  }
  note_ksigma_call(xs.size(), out.size(), stats);
  return out;
}

Diagnoser::Diagnoser(DiagnosisConfig config) : config_(config) {}

std::vector<StepAlert> Diagnoser::cross_step(const GpuTimeline& timeline,
                                             KSigmaStats* stats) const {
  std::vector<StepAlert> alerts;
  // Step 0 has no preceding DP burst, so its reconstructed duration is a
  // window artefact — exclude it from the series.
  if (timeline.steps.size() < 2) return alerts;
  std::vector<double> durations;
  durations.reserve(timeline.steps.size() - 1);
  for (std::size_t i = 1; i < timeline.steps.size(); ++i) {
    durations.push_back(to_seconds(timeline.steps[i].duration()));
  }
  const ReferenceComputer refs(durations, config_.ksigma);
  for (const std::size_t i :
       ksigma_outliers_above(durations, config_.ksigma, stats)) {
    const Reference r = refs.at(i);
    StepAlert a;
    a.gpu = timeline.gpu;
    a.step_index = timeline.steps[i + 1].index;
    a.duration_s = durations[i];
    a.mean_s = r.mean;
    a.threshold_s = r.mean + config_.ksigma.k * r.sigma;
    alerts.push_back(a);
  }
  return alerts;
}

std::vector<StepAlert> Diagnoser::cross_step_carried(
    const GpuTimeline& timeline, EwmaBaseline& baseline,
    const EwmaStepPolicy& policy, KSigmaStats* stats,
    std::uint64_t* ewma_alerts) const {
  // Window-local rule first: byte-identical to the cold path's alerts.
  std::vector<StepAlert> alerts = cross_step(timeline, stats);

  // The window-local rule scores steps 1.. (step 0's duration is a window
  // artefact) and only when it has >= min_samples of them. When it cannot
  // fire, the carried baseline takes over — but only once the baseline
  // itself has absorbed enough history.
  const std::size_t scorable =
      timeline.steps.size() > 1 ? timeline.steps.size() - 1 : 0;
  const bool window_self_sufficient = scorable >= config_.ksigma.min_samples;
  for (std::size_t i = 1; i < timeline.steps.size(); ++i) {
    const double d = to_seconds(timeline.steps[i].duration());
    if (!window_self_sufficient && baseline.count >= policy.min_samples) {
      const double threshold =
          baseline.mean + config_.ksigma.k * baseline.sigma();
      if (d > threshold &&
          d > baseline.mean * (1.0 + config_.ksigma.min_relative_excess)) {
        StepAlert a;
        a.gpu = timeline.gpu;
        a.step_index = timeline.steps[i].index;
        a.duration_s = d;
        a.mean_s = baseline.mean;
        a.threshold_s = threshold;
        alerts.push_back(a);
        if (ewma_alerts != nullptr) ++*ewma_alerts;
        // An outlier must not drag the baseline it was scored against;
        // skip the fold so one straggler cannot mask the next.
        continue;
      }
    }
    baseline.observe(d, policy.alpha);
  }
  return alerts;
}

std::vector<StepAlert> Diagnoser::cross_step(
    std::span<const GpuTimeline> timelines, KSigmaStats* stats) const {
  std::vector<StepAlert> alerts;
  for (const GpuTimeline& t : timelines) {
    const auto a = cross_step(t, stats);
    alerts.insert(alerts.end(), a.begin(), a.end());
  }
  return alerts;
}

std::vector<GroupAlert> Diagnoser::cross_group(
    const std::vector<std::vector<double>>& group_step_durations,
    KSigmaStats* stats) const {
  std::vector<GroupAlert> alerts;
  std::size_t max_steps = 0;
  for (const auto& row : group_step_durations) {
    max_steps = std::max(max_steps, row.size());
  }
  for (std::size_t step = 0; step < max_steps; ++step) {
    std::vector<double> durations;
    std::vector<std::size_t> group_idx;
    for (std::size_t g = 0; g < group_step_durations.size(); ++g) {
      if (step < group_step_durations[g].size()) {
        durations.push_back(group_step_durations[g][step]);
        group_idx.push_back(g);
      }
    }
    const ReferenceComputer refs(durations, config_.ksigma);
    for (const std::size_t i :
         ksigma_outliers_above(durations, config_.ksigma, stats)) {
      const Reference r = refs.at(i);
      GroupAlert a;
      a.group_index = group_idx[i];
      a.step_index = step;
      a.duration_s = durations[i];
      a.mean_s = r.mean;
      a.threshold_s = r.mean + config_.ksigma.k * r.sigma;
      alerts.push_back(a);
    }
  }
  return alerts;
}

namespace {

/// Per-switch CSR layout of a view's hops: the count and prefix-sum half
/// of every switch kernel's gather, computed once per switch stage and
/// shared. offsets[s] .. offsets[s + 1] is switch s's slice of a scatter
/// buffer filled in flow order. The bandwidth kernels skip zero-duration
/// flows (they have no bandwidth) while the concurrency sweep counts every
/// flow, so one counting pass yields both layouts. The count and both
/// scatters run chunked on the pool (ChunkedScatter), whose layout is the
/// serial one at any thread count; the count rows widen to the highest
/// switch id met, so no separate max-id pass is needed.
struct SwitchHops {
  std::size_t slots = 0;           ///< highest switch id + 1; 0 = no hops
  std::vector<std::size_t> all;    ///< every flow's hops
  std::vector<std::size_t> timed;  ///< hops of flows with duration > 0
  ChunkedScatter<std::size_t> all_layout;
  ChunkedScatter<std::size_t> timed_layout;

  SwitchHops(const FlowView& v, ThreadPool* pool)
      : all_layout(pool, v.size(), 0), timed_layout(pool, v.size(), 0) {
    if (v.switch_offsets.empty() || v.empty()) return;
    // Per-flow hop iteration (not the raw hop column): a sliced view keeps
    // absolute CSR offsets over the parent's hop storage.
    all_layout.for_each_chunk([&](std::size_t c, std::size_t begin,
                                  std::size_t end) {
      std::vector<std::size_t>& all_counts = all_layout.counts(c);
      std::vector<std::size_t>& timed_counts = timed_layout.counts(c);
      for (std::size_t i = begin; i < end; ++i) {
        const bool has_bandwidth = v.duration_ns[i] > 0;
        for (const std::uint32_t sw : v.switches(i)) {
          if (sw >= all_counts.size()) {
            const std::size_t width =
                std::max<std::size_t>(std::size_t{sw} + 1,
                                      2 * all_counts.size());
            all_counts.resize(width, 0);
            timed_counts.resize(width, 0);
          }
          ++all_counts[sw];
          if (has_bandwidth) ++timed_counts[sw];
        }
      }
    });
    all = all_layout.prefix();
    timed = timed_layout.prefix();
    // Rows grow geometrically; trailing switches no hop named are empty,
    // so cutting them leaves every offset valid.
    slots = all.size() - 1;
    while (slots > 0 && all[slots - 1] == all[slots]) --slots;
    all.resize(slots + 1);
    timed.resize(slots + 1);
  }
};

/// Per-switch DP bandwidth statistics, in switch-id order over the
/// switches that carried a flow with a duration: the mean into `means`
/// and the p-th percentile into `percentiles` (either may be null). One
/// task per switch on `pool`; each owns its slice of the sample buffer and
/// its result slots, so the result cannot depend on the thread count.
void switch_bandwidth_stats(
    const FlowView& v, const SwitchHops& hops, double p, ThreadPool* pool,
    std::vector<std::pair<SwitchId, double>>* means,
    std::vector<std::pair<SwitchId, double>>* percentiles) {
  if (hops.slots == 0) return;
  std::vector<double> samples(hops.timed[hops.slots]);
  hops.timed_layout.scatter([&](std::size_t, std::size_t begin,
                                std::size_t end,
                                std::vector<std::size_t>& cursor) {
    for (std::size_t i = begin; i < end; ++i) {
      if (v.duration_ns[i] <= 0) continue;
      const double bw = v.bandwidth_gbps(i);
      for (const std::uint32_t sw : v.switches(i)) samples[cursor[sw]++] = bw;
    }
  });
  std::vector<double> mean(means != nullptr ? hops.slots : 0);
  std::vector<double> pct(percentiles != nullptr ? hops.slots : 0);
  parallel_for(pool, hops.slots, [&](std::size_t sw) {
    const std::span<double> values(samples.data() + hops.timed[sw],
                                   hops.timed[sw + 1] - hops.timed[sw]);
    if (values.empty()) return;
    if (means != nullptr) {
      // Summed in flow order, before selection reorders the slice: the
      // same additions in the same order as a flow-order accumulation.
      double sum = 0.0;
      for (const double x : values) sum += x;
      mean[sw] = sum / static_cast<double>(values.size());
    }
    if (percentiles != nullptr) {
      pct[sw] = stats::percentile_in_place(values, p);
    }
  });
  for (std::size_t sw = 0; sw < hops.slots; ++sw) {
    if (hops.timed[sw] == hops.timed[sw + 1]) continue;
    const SwitchId id(static_cast<std::uint32_t>(sw));
    if (means != nullptr) means->emplace_back(id, mean[sw]);
    if (percentiles != nullptr) percentiles->emplace_back(id, pct[sw]);
  }
}

/// k-sigma (below) over the per-switch health scores.
std::vector<SwitchBandwidthAlert> score_switch_health(
    const std::vector<std::pair<SwitchId, double>>& per_switch,
    const KSigmaConfig& ksigma, KSigmaStats* stats) {
  std::vector<double> values;
  values.reserve(per_switch.size());
  for (const auto& [sw, bw] : per_switch) values.push_back(bw);

  const ReferenceComputer refs(values, ksigma);
  std::vector<SwitchBandwidthAlert> alerts;
  for (const std::size_t i : ksigma_outliers_below(values, ksigma, stats)) {
    const Reference r = refs.at(i);
    SwitchBandwidthAlert a;
    a.switch_id = per_switch[i].first;
    a.bandwidth_gbps = values[i];
    a.mean_gbps = r.mean;
    a.threshold_gbps = r.mean - ksigma.k * r.sigma;
    alerts.push_back(a);
  }
  return alerts;
}

/// Peak concurrent flows per switch, as alerts for the switches above
/// `limit`, in switch-id order. Sweep line per switch over split
/// start/end arrays: the CSR scatter preserves flow order, so on a
/// time-sorted view each switch's start slice is born sorted and only the
/// end slice needs sorting — half the sort volume of an interleaved
/// (+1/-1) event list, on plain TimeNs instead of 16-byte event structs.
/// One task per switch on `pool`, each owning its slices and its slot.
std::vector<SwitchConcurrencyAlert> switch_concurrency_alerts(
    const FlowView& v, const SwitchHops& hops, std::size_t limit,
    ThreadPool* pool) {
  if (hops.slots == 0) return {};
  const std::vector<std::size_t>& offsets = hops.all;
  std::vector<TimeNs> starts(offsets[hops.slots]);
  std::vector<TimeNs> ends(offsets[hops.slots]);
  hops.all_layout.scatter([&](std::size_t, std::size_t begin,
                              std::size_t end,
                              std::vector<std::size_t>& cursor) {
    for (std::size_t i = begin; i < end; ++i) {
      const TimeNs start = v.start_ns[i];
      const TimeNs finish = v.end_ns(i);
      for (const std::uint32_t sw : v.switches(i)) {
        starts[cursor[sw]] = start;
        ends[cursor[sw]] = finish;
        ++cursor[sw];
      }
    }
  });
  struct Peak {
    std::size_t flows = 0;
    TimeNs at = 0;
  };
  std::vector<Peak> peaks(hops.slots);
  parallel_for(pool, hops.slots, [&](std::size_t sw) {
    const auto lo = static_cast<std::ptrdiff_t>(offsets[sw]);
    const auto hi = static_cast<std::ptrdiff_t>(offsets[sw + 1]);
    if (lo == hi) return;
    if (!std::is_sorted(starts.begin() + lo, starts.begin() + hi)) {
      std::sort(starts.begin() + lo, starts.begin() + hi);
    }
    std::sort(ends.begin() + lo, ends.begin() + hi);
    // Two-pointer sweep, ends processed first at ties (a flow ending the
    // instant another starts never overlaps it). Signed so a degenerate
    // zero-duration flow (end == its own start) cannot wrap the count.
    std::ptrdiff_t current = 0;
    Peak& peak = peaks[sw];
    std::ptrdiff_t e = lo;
    for (std::ptrdiff_t s = lo; s < hi; ++s) {
      while (e < hi && ends[e] <= starts[s]) {
        --current;
        ++e;
      }
      ++current;
      if (current > 0 && static_cast<std::size_t>(current) > peak.flows) {
        peak.flows = static_cast<std::size_t>(current);
        peak.at = starts[s];
      }
    }
  });
  std::vector<SwitchConcurrencyAlert> alerts;
  for (std::size_t sw = 0; sw < hops.slots; ++sw) {
    if (peaks[sw].flows <= limit) continue;
    SwitchConcurrencyAlert a;
    a.switch_id = SwitchId(static_cast<std::uint32_t>(sw));
    a.at = peaks[sw].at;
    a.concurrent_flows = peaks[sw].flows;
    a.limit = limit;
    alerts.push_back(a);
  }
  return alerts;
}

}  // namespace

std::vector<std::pair<SwitchId, double>> Diagnoser::per_switch_bandwidth(
    const FlowTrace& dp_flows) {
  const FlowColumns columns(dp_flows);
  return per_switch_bandwidth(columns.view());
}

std::vector<std::pair<SwitchId, double>> Diagnoser::per_switch_bandwidth(
    const FlowView& dp_flows) {
  std::vector<std::pair<SwitchId, double>> out;
  switch_bandwidth_stats(dp_flows, SwitchHops(dp_flows, nullptr), 0.0,
                         nullptr, &out, nullptr);
  return out;
}

std::vector<std::pair<SwitchId, double>>
Diagnoser::per_switch_bandwidth_percentile(const FlowView& dp_flows,
                                           double p) {
  std::vector<std::pair<SwitchId, double>> out;
  switch_bandwidth_stats(dp_flows, SwitchHops(dp_flows, nullptr), p, nullptr,
                         nullptr, &out);
  return out;
}

std::vector<SwitchBandwidthAlert> Diagnoser::switch_bandwidth(
    const FlowTrace& dp_flows, KSigmaStats* stats) const {
  const FlowColumns columns(dp_flows);
  return switch_bandwidth(columns.view(), stats);
}

std::vector<SwitchBandwidthAlert> Diagnoser::switch_bandwidth(
    const FlowView& dp_flows, KSigmaStats* stats) const {
  return score_switch_health(
      per_switch_bandwidth_percentile(dp_flows,
                                      config_.switch_health_percentile),
      config_.switch_ksigma, stats);
}

std::vector<SwitchConcurrencyAlert> Diagnoser::switch_concurrency(
    const FlowTrace& dp_flows) const {
  const FlowColumns columns(dp_flows);
  return switch_concurrency(columns.view());
}

std::vector<SwitchConcurrencyAlert> Diagnoser::switch_concurrency(
    const FlowView& dp_flows) const {
  return switch_concurrency_alerts(dp_flows, SwitchHops(dp_flows, nullptr),
                                   config_.switch_dp_flow_limit, nullptr);
}

SwitchDiagnosis Diagnoser::switch_level(const FlowView& dp_flows,
                                        KSigmaStats* stats,
                                        ThreadPool* pool) const {
  const SwitchHops hops(dp_flows, pool);
  SwitchDiagnosis out;
  std::vector<std::pair<SwitchId, double>> health;
  switch_bandwidth_stats(dp_flows, hops, config_.switch_health_percentile,
                         pool, &out.bandwidth_gbps, &health);
  out.bandwidth_alerts =
      score_switch_health(health, config_.switch_ksigma, stats);
  out.concurrency_alerts = switch_concurrency_alerts(
      dp_flows, hops, config_.switch_dp_flow_limit, pool);
  return out;
}

std::vector<SwitchBandwidthSeries> switch_bandwidth_timeline(
    const FlowTrace& dp_flows, DurationNs bucket) {
  const FlowColumns columns(dp_flows);
  return switch_bandwidth_timeline(columns.view(), bucket);
}

std::vector<SwitchBandwidthSeries> switch_bandwidth_timeline(
    const FlowView& dp_flows, DurationNs bucket) {
  if (bucket <= 0) {
    throw std::invalid_argument("switch timeline: bucket must be positive");
  }
  struct Acc {
    double sum = 0;
    std::size_t count = 0;
  };
  std::unordered_map<SwitchId, std::map<TimeNs, Acc>> acc;
  for (std::size_t i = 0; i < dp_flows.size(); ++i) {
    if (dp_flows.duration_ns[i] <= 0) continue;
    const TimeNs start = dp_flows.start_ns[i];
    const TimeNs begin =
        start - (((start % bucket) + bucket) % bucket);  // floor to bucket
    const double bw = dp_flows.bandwidth_gbps(i);
    for (const std::uint32_t sw : dp_flows.switches(i)) {
      Acc& a = acc[SwitchId(sw)][begin];
      a.sum += bw;
      ++a.count;
    }
  }
  std::vector<SwitchBandwidthSeries> out;
  out.reserve(acc.size());
  for (auto& [sw, buckets] : acc) {
    SwitchBandwidthSeries series;
    series.switch_id = sw;
    for (const auto& [begin, a] : buckets) {
      series.bucket_begin.push_back(begin);
      series.gbps.push_back(a.sum / static_cast<double>(a.count));
    }
    out.push_back(std::move(series));
  }
  std::sort(out.begin(), out.end(),
            [](const SwitchBandwidthSeries& a, const SwitchBandwidthSeries& b) {
              return a.switch_id < b.switch_id;
            });
  return out;
}

std::vector<BandwidthOnset> detect_bandwidth_onsets(
    std::span<const SwitchBandwidthSeries> series,
    const OnsetDetectorConfig& config) {
  std::vector<BandwidthOnset> onsets;
  for (const SwitchBandwidthSeries& s : series) {
    if (s.gbps.size() < config.min_buckets) continue;
    // Normalize by the series median so a single detector configuration
    // serves every link speed.
    const double scale = std::max(1e-9, stats::median(s.gbps));
    std::vector<double> normalized;
    normalized.reserve(s.gbps.size());
    for (const double g : s.gbps) normalized.push_back(g / scale);

    // Empirical-Bayes prior scale: bandwidth series are orders of magnitude
    // tighter (relative noise ~1%) than the unit-scale default prior, which
    // would otherwise floor the run predictive so wide that even a huge
    // level shift stays "within run". Estimate the within-regime noise from
    // the MAD of first differences (robust to the level shift itself, and
    // unlike the plain MAD also to a balanced bimodal series) and aim the
    // prior predictive at ~10x it.
    std::vector<double> diffs;
    diffs.reserve(normalized.size());
    for (std::size_t i = 1; i < normalized.size(); ++i) {
      diffs.push_back(std::abs(normalized[i] - normalized[i - 1]));
    }
    const double s_data = std::max(
        1.4826 * stats::median(diffs) / std::sqrt(2.0), 0.005);
    BocdConfig cfg = config.bocd;
    cfg.prior_mean = 1.0;
    const double target_scale = 10.0 * s_data;
    cfg.prior_beta = target_scale * target_scale * cfg.prior_alpha *
                     cfg.prior_kappa / (cfg.prior_kappa + 1.0);
    // Pooled detector: one instance per thread serves every switch series,
    // and the per-run-length coefficient caches survive across series (only
    // prior_mean / prior_beta vary here — the prior shape is fixed).
    BocdDetector& detector = pooled_detector(cfg);
    for (std::size_t i = 0; i < s.gbps.size(); ++i) {
      detector.observe(normalized[i]);
      // Recent-mass threshold OR MAP run-length collapse (as in
      // segment_by_gaps); spurious collapses are filtered by the explicit
      // persistent-drop check below.
      const bool posterior_says_cp =
          detector.last_was_changepoint() ||
          (detector.observations_seen() > cfg.recent_run_cap + 1 &&
           detector.map_run_length() <= cfg.recent_run_cap);
      if (!posterior_says_cp) continue;
      // Candidate onset at bucket i: require a persistent *drop*.
      const std::span<const double> before(s.gbps.data(), i);
      const std::span<const double> after(s.gbps.data() + i,
                                          s.gbps.size() - i);
      if (before.size() < 2 || after.size() < 2) continue;
      const double mean_before = stats::mean(before);
      const double mean_after = stats::mean(after);
      if (mean_after < mean_before * (1.0 - config.min_drop)) {
        onsets.push_back(
            {s.switch_id, s.bucket_begin[i], mean_before, mean_after});
        break;  // first persistent drop per switch
      }
    }
  }
  return onsets;
}

std::vector<std::vector<double>> group_dp_durations(
    std::span<const GpuTimeline> timelines,
    const std::vector<std::vector<GpuId>>& dp_components) {
  std::unordered_map<GpuId, const GpuTimeline*> by_gpu;
  for (const GpuTimeline& t : timelines) by_gpu.emplace(t.gpu, &t);

  std::vector<std::vector<double>> durations;
  durations.reserve(dp_components.size());
  for (const auto& component : dp_components) {
    std::size_t min_steps = SIZE_MAX;
    std::vector<const GpuTimeline*> members;
    for (const GpuId g : component) {
      const auto it = by_gpu.find(g);
      if (it == by_gpu.end()) continue;
      members.push_back(it->second);
      min_steps = std::min(min_steps, it->second->steps.size());
    }
    std::vector<double> row;
    if (!members.empty() && min_steps != SIZE_MAX) {
      row.reserve(min_steps);
      for (std::size_t k = 0; k < min_steps; ++k) {
        TimeNs begin = members.front()->steps[k].dp_begin;
        TimeNs end = members.front()->steps[k].dp_end;
        for (const GpuTimeline* t : members) {
          begin = std::min(begin, t->steps[k].dp_begin);
          end = std::max(end, t->steps[k].dp_end);
        }
        row.push_back(to_seconds(end - begin));
      }
    }
    durations.push_back(std::move(row));
  }
  return durations;
}

}  // namespace llmprism
