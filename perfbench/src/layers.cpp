#include "layers.hpp"

#include <algorithm>
#include <array>

#include "llmprism/obs/metrics.hpp"

namespace perfbench {

std::string_view self_time_metric(std::string_view span) {
  static const std::array<std::pair<std::string_view, std::string_view>, 21>
      kMetrics = {{
          {"ingest.csv", "flow.decode_ms"},
          {"ingest.lft", "flow.decode_ms"},
          {"ingest.lft_buffer", "flow.decode_ms"},
          {"ingest.lft_mmap", "flow.decode_ms"},
          {"bench.read_csv", "flow.decode_ms"},
          {"bench.map", "flow.decode_ms"},
          {"bench.analyze", "core.prism.self_ms"},
          {"prism.analyze", "core.prism.self_ms"},
          {"prism.job", "core.prism.self_ms"},
          {"prism.recognize", "core.job_recognition.self_ms"},
          {"prism.route", "core.flow_router.self_ms"},
          {"job.comm_type", "core.comm_type.self_ms"},
          {"job.timeline", "core.timeline.self_ms"},
          {"job.infer", "core.parallelism_inference.self_ms"},
          {"job.diagnosis", "core.diagnosis.job_ms"},
          {"prism.switch_diagnosis", "core.diagnosis.switch_ms"},
          {"prism.attribute", "core.attribution.self_ms"},
          {"monitor.ingest", "core.monitor.ingest_ms"},
          {"monitor.window", "core.monitor.window_ms"},
          {"bench.render", "core.render.report_ms"},
          {"bench.op", "bench.self_ms"},
      }};
  for (const auto& [name, metric] : kMetrics) {
    if (name == span) return metric;
  }
  return "other.self_ms";
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"flow.decode_ms", "ms"},
      {"flow.decode_flows_per_s", "flows/s"},
      {"flow.sorts", "count"},
      {"flow.materializations", "count"},
      {"core.job_recognition.self_ms", "ms"},
      {"core.job_recognition.jobs", "count"},
      {"core.flow_router.self_ms", "ms"},
      {"core.flow_router.unattributed_ratio", "ratio"},
      {"core.flow_router.via_dst", "count"},
      {"core.comm_type.self_ms", "ms"},
      {"core.comm_type.pairs", "count"},
      {"core.comm_type.refinement_flips", "count"},
      {"core.comm_type.artifact_flows", "count"},
      {"bocd.observations", "count"},
      {"bocd.boundary_ratio", "ratio"},
      {"bocd.hard_resets", "count"},
      {"bocd.detector_reuses", "count"},
      {"core.timeline.self_ms", "ms"},
      {"core.timeline.steps", "count"},
      {"core.timeline.events", "count"},
      {"core.parallelism_inference.self_ms", "ms"},
      {"core.diagnosis.job_ms", "ms"},
      {"core.diagnosis.switch_ms", "ms"},
      {"core.diagnosis.ksigma_points", "count"},
      {"core.diagnosis.ksigma_alerts", "count"},
      {"core.attribution.self_ms", "ms"},
      {"core.attribution.incidents", "count"},
      {"core.attribution.orphaned_ratio", "ratio"},
      {"core.prism.fanout_ms", "ms"},
      {"core.prism.serial_ms", "ms"},
      {"core.prism.fanout_efficiency", "ratio"},
      {"core.monitor.ingest_ms", "ms"},
      {"core.monitor.window_ms", "ms"},
      {"core.monitor.windows", "count"},
      {"core.monitor.late_dropped", "count"},
      {"core.monitor.buffered_flows_max", "count"},
      {"core.monitor.stable_ids", "count"},
      {"core.session.recognition_reuse_ratio", "ratio"},
      {"core.session.pair_reuse_ratio", "ratio"},
      {"core.session.jobs_tracked", "count"},
      {"core.render.report_ms", "ms"},
      {"core.render.report_bytes", "bytes"},
      {"core.snapshot.save_ms", "ms"},
      {"core.snapshot.restore_ms", "ms"},
      {"core.snapshot.bytes", "bytes"},
      {"export.journal_records", "count"},
      {"export.journal_bytes", "bytes"},
      {"serve.frames", "count"},
      {"serve.frame_errors", "count"},
      {"serve.backpressure_waits", "count"},
      {"serve.queue_depth_p99", "count"},
      {"serve.http_requests", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.spans", "count"},
      {"bench.gen.lag_p99_ms", "ms"},
      {"bench.gen.late_sends", "count"},
      {"bench.detect.resolution_p99_ms", "ms"},
  };
  return kCatalogue;
}

void fill_missing_layers(RunResult& result) {
  for (const auto& [name, unit] : per_layer_catalogue()) {
    if (!result.metrics.contains(name)) result.set(name, 0.0, unit);
  }
}

namespace {

const std::array<const char*, 26> kCounters = {
    "llmprism_flowtrace_sorts_total",
    "llmprism_flow_materializations_total",
    "llmprism_jobs_recognized_total",
    "llmprism_flows_routed_total",
    "llmprism_flows_routed_via_dst_total",
    "llmprism_flows_unattributed_total",
    "llmprism_comm_type_pairs_total",
    "llmprism_comm_type_refinement_flips_total",
    "llmprism_comm_type_artifact_flows_total",
    "llmprism_bocd_observations_total",
    "llmprism_bocd_boundaries_total",
    "llmprism_bocd_hard_resets_total",
    "llmprism_bocd_detector_reuses_total",
    "llmprism_ksigma_points_total",
    "llmprism_ksigma_alerts_total",
    "llmprism_incidents_total",
    "llmprism_alerts_explained_total",
    "llmprism_alerts_orphaned_total",
    "llmprism_session_recognition_reuses_total",
    "llmprism_session_recognition_rebuilds_total",
    "llmprism_session_pairs_reused_total",
    "llmprism_session_pairs_reclassified_total",
    "llmprism_monitor_windows_completed_total",
    "llmprism_monitor_flows_dropped_late_total",
    "llmprism_monitor_stable_ids_total",
    "llmprism_monitor_flows_ingested_total",
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot snap;
  llmprism::obs::Registry& registry = llmprism::obs::default_registry();
  for (const char* name : kCounters) snap.values_[name] = registry.counter(name).value();
  return snap;
}

double CounterSnapshot::delta(const CounterSnapshot& before,
                              const std::string& counter) const {
  return static_cast<double>(values_.at(counter) - before.values_.at(counter));
}

std::map<std::string, double> layer_self_ms(const std::vector<SpanNode>& tree,
                                            std::size_t root) {
  std::map<std::string, double> out;
  for (const auto& [name, us] : subtree_self_by_name(tree, root)) {
    out[std::string(self_time_metric(name))] += static_cast<double>(us) / 1e3;
  }
  return out;
}

FanOut fan_out_of(const std::vector<SpanNode>& tree, std::size_t analyze,
                  std::size_t threads) {
  const SpanNode& node = tree[analyze];
  std::vector<std::pair<std::int64_t, std::int64_t>> jobs;
  double busy_us = 0;
  for (const std::size_t c : node.children) {
    if (std::string_view(tree[c].record.name) == "prism.job") {
      jobs.emplace_back(tree[c].start(), tree[c].end());
      busy_us += static_cast<double>(tree[c].record.dur_us);
    }
  }
  FanOut f;
  const double wall_us = static_cast<double>(
      covered_length(jobs, node.start(), node.end()));
  f.fanout_ms = wall_us / 1e3;
  f.serial_ms = static_cast<double>(node.record.dur_us) / 1e3 - f.fanout_ms;
  f.efficiency = ratio(busy_us, static_cast<double>(threads) * wall_us);
  return f;
}

void add_counter_layers(std::map<std::string, double>& out,
                        const CounterSnapshot& before,
                        const CounterSnapshot& after) {
  auto d = [&](const char* name) { return after.delta(before, name); };
  out["flow.sorts"] = d("llmprism_flowtrace_sorts_total");
  out["flow.materializations"] = d("llmprism_flow_materializations_total");
  out["core.job_recognition.jobs"] = d("llmprism_jobs_recognized_total");
  const double routed = d("llmprism_flows_routed_total");
  const double unattributed = d("llmprism_flows_unattributed_total");
  out["core.flow_router.unattributed_ratio"] =
      ratio(unattributed, routed + unattributed);
  out["core.flow_router.via_dst"] = d("llmprism_flows_routed_via_dst_total");
  out["core.comm_type.pairs"] = d("llmprism_comm_type_pairs_total");
  out["core.comm_type.refinement_flips"] =
      d("llmprism_comm_type_refinement_flips_total");
  out["core.comm_type.artifact_flows"] =
      d("llmprism_comm_type_artifact_flows_total");
  const double observations = d("llmprism_bocd_observations_total");
  out["bocd.observations"] = observations;
  out["bocd.boundary_ratio"] =
      ratio(d("llmprism_bocd_boundaries_total"), observations);
  out["bocd.hard_resets"] = d("llmprism_bocd_hard_resets_total");
  out["bocd.detector_reuses"] = d("llmprism_bocd_detector_reuses_total");
  out["core.diagnosis.ksigma_points"] = d("llmprism_ksigma_points_total");
  out["core.diagnosis.ksigma_alerts"] = d("llmprism_ksigma_alerts_total");
  out["core.attribution.incidents"] = d("llmprism_incidents_total");
  const double orphaned = d("llmprism_alerts_orphaned_total");
  out["core.attribution.orphaned_ratio"] =
      ratio(orphaned, orphaned + d("llmprism_alerts_explained_total"));
}

}  // namespace perfbench
