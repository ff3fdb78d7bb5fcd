// Unit tests for timeline/report rendering.
#include "llmprism/core/render.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "json_lint.hpp"

namespace llmprism {
namespace {

GpuTimeline sample_timeline() {
  GpuTimeline t;
  t.gpu = GpuId(3);
  t.events.push_back(
      {TimelineEventKind::kCompute, 0, 40 * kMillisecond, GpuId()});
  t.events.push_back({TimelineEventKind::kPpSend, 40 * kMillisecond,
                      50 * kMillisecond, GpuId(7)});
  t.events.push_back({TimelineEventKind::kCompute, 50 * kMillisecond,
                      80 * kMillisecond, GpuId()});
  t.events.push_back({TimelineEventKind::kDp, 80 * kMillisecond,
                      100 * kMillisecond, GpuId(11)});
  return t;
}

TEST(RenderLaneTest, PaintsAllEventKinds) {
  const std::string lane = render_timeline_lane(sample_timeline(),
                                                {.width = 50});
  EXPECT_NE(lane.find("gpu 3"), std::string::npos);
  EXPECT_NE(lane.find('C'), std::string::npos);
  EXPECT_NE(lane.find('>'), std::string::npos);
  EXPECT_NE(lane.find('D'), std::string::npos);
}

TEST(RenderLaneTest, RespectsWidth) {
  const std::string lane =
      render_timeline_lane(sample_timeline(), {.width = 30});
  // "gpu 3 |" + 30 chars + "|"
  EXPECT_EQ(lane.size(), std::string("gpu 3 |").size() + 30 + 1);
}

TEST(RenderLaneTest, EmptyTimelineIsAllIdle) {
  GpuTimeline t;
  t.gpu = GpuId(0);
  const std::string lane = render_timeline_lane(t, {.width = 10});
  EXPECT_NE(lane.find(".........."), std::string::npos);
}

TEST(RenderLaneTest, WindowClipsEvents) {
  const auto t = sample_timeline();
  // Window covering only the DP event.
  const std::string lane = render_timeline_lane(
      t, {.width = 10, .window = {80 * kMillisecond, 100 * kMillisecond}});
  EXPECT_NE(lane.find('D'), std::string::npos);
  EXPECT_EQ(lane.find('>'), std::string::npos);
}

TEST(RenderChartTest, MultipleLanesShareAxis) {
  auto a = sample_timeline();
  auto b = sample_timeline();
  b.gpu = GpuId(4);
  const std::vector<GpuTimeline> ts{a, b};
  const std::string chart = render_timeline_chart(std::span(ts), {.width = 40});
  EXPECT_NE(chart.find("gpu 3"), std::string::npos);
  EXPECT_NE(chart.find("gpu 4"), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
}

TEST(RenderChartTest, EmptyInput) {
  EXPECT_EQ(render_timeline_chart({}), "(no timelines)\n");
}

TEST(WriteTimelineJsonTest, SchemaHeaderThenOneLinePerEvent) {
  const auto t = sample_timeline();
  const std::vector<GpuTimeline> ts{t};
  std::ostringstream oss;
  write_timeline_json(oss, std::span(ts));
  const std::string json = oss.str();
  std::size_t lines = 0;
  for (const char c : json) lines += c == '\n';
  EXPECT_EQ(lines, t.events.size() + 1);  // schema header + events
  EXPECT_EQ(json.rfind("{\"schema_version\":", 0), 0u);
  EXPECT_NE(json.find("\"kind\":\"pp_send\""), std::string::npos);
  EXPECT_NE(json.find("\"peer\":7"), std::string::npos);
  // compute events have no peer field
  EXPECT_NE(json.find("\"kind\":\"compute\",\"start_ns\":0"),
            std::string::npos);
}

TEST(WriteTimelineJsonTest, EveryLineParsesAsJsonAndHeaderIsVersioned) {
  const auto t = sample_timeline();
  const std::vector<GpuTimeline> ts{t};
  std::ostringstream oss;
  write_timeline_json(oss, std::span(ts));
  std::istringstream lines(oss.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(testing::is_valid_json(line))
        << testing::JsonLinter(line).error() << "\n" << line;
    if (parsed == 0) {
      EXPECT_TRUE(testing::is_versioned_json(line)) << line;
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, t.events.size() + 1);
}

TEST(WriteReportJsonTest, SerializesJobsAndAlerts) {
  PrismReport report;
  report.recognition.num_cross_machine_clusters = 5;
  JobAnalysis job;
  job.id = JobId(0);
  job.job.gpus = {GpuId(0), GpuId(1)};
  job.job.machines = {MachineId(0)};
  job.inferred = {.world_size = 2, .dp = 2, .pp = 1, .tp = 1,
                  .micro_batches = 4};
  StepAlert alert;
  alert.gpu = GpuId(1);
  alert.step_index = 7;
  alert.duration_s = 2.0;
  alert.mean_s = 1.0;
  job.step_alerts.push_back(alert);
  report.jobs.push_back(std::move(job));
  report.switch_bandwidth_gbps.emplace_back(SwitchId(3), 150.5);
  SwitchBandwidthAlert sw_alert;
  sw_alert.switch_id = SwitchId(3);
  sw_alert.bandwidth_gbps = 42.0;
  report.switch_bandwidth_alerts.push_back(sw_alert);

  std::ostringstream oss;
  write_report_json(oss, report);
  const std::string json = oss.str();
  EXPECT_TRUE(testing::is_versioned_json(json));
  EXPECT_NE(json.find("\"schema_version\":" +
                      std::to_string(kReportSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"cross_machine_clusters\":5"), std::string::npos);
  EXPECT_NE(json.find("\"layout\":{\"tp\":1,\"dp\":2,\"pp\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"step\":7"), std::string::npos);
  EXPECT_NE(json.find("\"3\":150.5"), std::string::npos);
  EXPECT_NE(json.find("\"bandwidth_gbps\":42"), std::string::npos);
  EXPECT_TRUE(testing::is_valid_json(json))
      << testing::JsonLinter(json).error() << "\n" << json;
}

TEST(WriteReportJsonTest, EmptyReport) {
  std::ostringstream oss;
  write_report_json(oss, PrismReport{});
  EXPECT_NE(oss.str().find("\"jobs\":[]"), std::string::npos);
  EXPECT_TRUE(testing::is_versioned_json(oss.str()));
}

TEST(WriteReportJsonTest, SerializesTelemetryBlock) {
  PrismReport report;
  report.telemetry.flows_total = 100;
  report.telemetry.flows_routed = 90;
  report.telemetry.flows_unattributed = 10;
  report.telemetry.pairs_classified = 12;
  report.telemetry.bocd_observations = 345;
  report.telemetry.ksigma_alerts = 2;
  std::ostringstream oss;
  write_report_json(oss, report);
  const std::string json = oss.str();
  EXPECT_TRUE(testing::is_valid_json(json))
      << testing::JsonLinter(json).error();
  EXPECT_NE(json.find("\"telemetry\":{"), std::string::npos);
  EXPECT_NE(json.find("\"flows_total\":100"), std::string::npos);
  EXPECT_NE(json.find("\"flows_routed\":90"), std::string::npos);
  EXPECT_NE(json.find("\"flows_unattributed\":10"), std::string::npos);
  EXPECT_NE(json.find("\"pairs_classified\":12"), std::string::npos);
  EXPECT_NE(json.find("\"bocd_observations\":345"), std::string::npos);
  EXPECT_NE(json.find("\"ksigma_alerts\":2"), std::string::npos);
}

TEST(WriteReportJsonTest, SerializesIncidents) {
  PrismReport report;
  AttributedIncident incident;
  incident.job = JobId(0);
  incident.step_begin = 8;
  incident.step_end = 8;
  incident.confidence = 0.875;
  incident.culprits.push_back(
      {.kind = CulpritKind::kRank,
       .gpu = GpuId(11),
       .dp_group_index = 0,
       .switch_id = SwitchId{},
       .score = 1.5});
  incident.victims.push_back({.kind = VictimKind::kStepAlert,
                              .job = JobId(0),
                              .gpu = GpuId(40),
                              .step_index = 8,
                              .hops = 2});
  incident.evidence.step_alerts = 8;
  report.attribution.incidents.push_back(std::move(incident));

  AttributedIncident cluster;  // switch incidents carry no job id
  cluster.culprits.push_back(
      {.kind = CulpritKind::kSwitch,
       .gpu = GpuId{},
       .dp_group_index = 0,
       .switch_id = SwitchId(3),
       .score = 0.7});
  cluster.evidence.switch_bandwidth_alerts = 1;
  report.attribution.incidents.push_back(std::move(cluster));

  std::ostringstream oss;
  write_report_json(oss, report);
  const std::string json = oss.str();
  EXPECT_TRUE(testing::is_valid_json(json))
      << testing::JsonLinter(json).error() << "\n" << json;
  EXPECT_NE(json.find("\"incidents\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"rank\",\"gpu\":11"), std::string::npos);
  EXPECT_NE(json.find("\"confidence\":0.875"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"step_alert\",\"gpu\":40"),
            std::string::npos);
  EXPECT_NE(json.find("\"hops\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"switch\",\"switch\":3"), std::string::npos);
  // The cluster-level incident must not claim a job or step range.
  const std::size_t cluster_pos = json.find("\"kind\":\"switch\"");
  ASSERT_NE(cluster_pos, std::string::npos);
  EXPECT_EQ(json.find("\"job\":", json.find("\"incidents\":[")),
            json.find("\"job\":0,\"step_begin\":8"));
  EXPECT_NE(json.find("\"evidence\":{\"step_alerts\":8"), std::string::npos);
}

TEST(RenderSummaryTest, IncludesIncidentBlock) {
  PrismReport report;
  AttributedIncident incident;
  incident.job = JobId(0);
  incident.step_begin = 8;
  incident.step_end = 9;
  incident.confidence = 0.9;
  incident.culprits.push_back(
      {.kind = CulpritKind::kRank,
       .gpu = GpuId(11),
       .dp_group_index = 0,
       .switch_id = SwitchId{},
       .score = 1.5});
  report.attribution.incidents.push_back(std::move(incident));
  report.telemetry.incidents = 1;
  report.telemetry.alerts_explained = 8;

  const std::string summary = render_report_summary(report);
  EXPECT_NE(summary.find("incidents:"), std::string::npos);
  EXPECT_NE(summary.find("straggler gpu 11"), std::string::npos);
  EXPECT_NE(summary.find("1 incidents"), std::string::npos);
  EXPECT_NE(summary.find("8 alerts explained"), std::string::npos);
}

TEST(RenderSummaryTest, IncludesTelemetryLine) {
  PrismReport report;
  report.telemetry.flows_total = 50;
  report.telemetry.flows_routed = 50;
  const std::string summary = render_report_summary(report);
  EXPECT_NE(summary.find("telemetry: 50/50 flows routed"),
            std::string::npos);
}

TEST(EventKindToStringTest, AllKindsNamed) {
  EXPECT_EQ(to_string(TimelineEventKind::kPpSend), "pp_send");
  EXPECT_EQ(to_string(TimelineEventKind::kPpRecv), "pp_recv");
  EXPECT_EQ(to_string(TimelineEventKind::kDp), "dp");
  EXPECT_EQ(to_string(TimelineEventKind::kCompute), "compute");
  EXPECT_EQ(to_string(CommType::kPP), "PP");
  EXPECT_EQ(to_string(CommType::kDP), "DP");
}

}  // namespace
}  // namespace llmprism
