// bigjob-window and fleet-window: closed loop, one caller.
//
// One operation ingests one window through the workload's public ingest
// call (MappedFlowTrace over an LFT file, or read_csv_checked over a CSV
// buffer) and runs Prism::analyze on it. The run alternates phases at
// `nproc` threads and at 1 thread, in rounds. Every operation's report is
// rendered with write_report_json (outside the timed region) and its
// digest must equal the digest recorded in setup, where each window was
// analyzed at both thread counts and the two digests compared.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "inputs.hpp"
#include "layers.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/obs/trace_span.hpp"
#include "measure.hpp"
#include "quality.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace llmprism;

namespace {

/// Windows that operations cycle through. Quality is scored on many more
/// windows of the same seed, so that the deterministic quality metrics
/// vary little from seed to seed.
constexpr std::size_t kTimedWindows = 4;
constexpr std::size_t kQualityWindows = 64;
/// Repetitions of the timed set-up; its median is reported.
constexpr std::size_t kSetupReps = 201;
/// The run is a sequence of rounds of about this length, each an nproc
/// phase followed by a 1-thread phase, so that both thread counts sample
/// the whole run (a slow spell of the host falls on both, not on one phase).
constexpr double kRoundSeconds = 3.0;
/// Share of each round spent in the nproc phase (the rest runs 1 thread).
constexpr double kWideShare = 0.6;

PrismConfig with_threads(std::size_t threads) {
  PrismConfig config;
  config.num_threads = threads;
  return config;
}

/// The system under test as a caller builds it: the topology and one
/// Prism per thread count. Not movable: each Prism keeps a reference to
/// the topology.
struct System {
  System(const TopologyConfig& topology_config, std::size_t threads)
      : topology(ClusterTopology::build(topology_config)),
        wide(topology, with_threads(threads)),
        single(topology, with_threads(1)) {}
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  ClusterTopology topology;
  Prism wide;
  Prism single;
};

/// The timed inputs: LFT files (bigjob) or CSV buffers (fleet).
struct TimedInputs {
  bool lft = true;
  std::vector<std::string> lft_paths;
  std::vector<std::string> csv;
  std::vector<std::size_t> flows;
  std::vector<std::uint64_t> expected;  ///< report digest per window
};

std::string render(const PrismReport& report) {
  const obs::Span span("bench.render");
  std::ostringstream os;
  write_report_json(os, report);
  return std::move(os).str();
}

/// One operation: ingest window `w` through the public call, analyze it.
PrismReport run_op(const TimedInputs& in, std::size_t w, const Prism& prism,
                   std::size_t csv_threads) {
  const obs::Span op("bench.op", w);
  if (in.lft) {
    std::optional<MappedFlowTrace> mapped;
    {
      const obs::Span span("bench.map");
      mapped.emplace(in.lft_paths[w]);
    }
    const obs::Span span("bench.analyze");
    return prism.analyze(mapped->view());
  }
  ParseResult parsed;
  {
    const obs::Span span("bench.read_csv");
    CsvParseOptions options;
    options.num_threads = csv_threads;
    parsed = read_csv_checked(in.csv[w], options);
  }
  if (!parsed.ok()) throw std::runtime_error("csv parse errors");
  const obs::Span span("bench.analyze");
  return prism.analyze(parsed.trace);
}

struct OpSample {
  double seconds = 0;    ///< ingest + analyze
  double render_s = 0;   ///< write_report_json of the result
  std::size_t flows = 0;
};

/// Run operations on `prism` until `phase_seconds` have passed, appending
/// to `samples` and checking every report digest. `next` counts the
/// phase's operations across rounds, so that the windows take turns evenly.
void run_phase(const TimedInputs& in, const Prism& prism, std::size_t csv_threads,
               double phase_seconds, std::size_t& next,
               std::vector<OpSample>& samples, RunResult& result) {
  const Clock::time_point begin = Clock::now();
  while (seconds_since(begin) < phase_seconds) {
    const std::size_t w = next++ % in.flows.size();
    ++result.attempted;
    try {
      OpSample sample{.flows = in.flows[w]};
      const Clock::time_point t0 = Clock::now();
      const PrismReport report = run_op(in, w, prism, csv_threads);
      sample.seconds = seconds_since(t0);
      const Clock::time_point t1 = Clock::now();
      const std::string json = render(report);
      sample.render_s = seconds_since(t1);
      if (digest(json) != in.expected[w]) {
        result.fail("window " + std::to_string(w) + ": report digest differs");
        continue;
      }
      samples.push_back(sample);
    } catch (const std::exception& e) {
      result.fail(std::string("operation failed: ") + e.what());
    }
  }
}

template <typename F>
std::vector<double> each(const std::vector<OpSample>& samples, F f) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpSample& s : samples) out.push_back(f(s));
  return out;
}

/// Traced pass: alternate untraced and traced operations at nproc; per
/// traced operation, per-layer self times and counter deltas.
void traced_pass(const TimedInputs& in, const System& system,
                 const RunOptions& opt, bool check_self_sum,
                 RunResult& result) {
  const std::size_t threads = opt.threads;
  obs::TraceCollector& collector = obs::TraceCollector::instance();
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> layers;
  std::vector<obs::SpanRecord> all_spans;
  const Clock::time_point begin = Clock::now();
  for (std::size_t i = 0; seconds_since(begin) < opt.seconds || traced_ms.size() < 5;
       ++i) {
    const std::size_t w = (i / 2) % in.flows.size();
    const bool traced = i % 2 == 1;
    ++result.attempted;
    const CounterSnapshot before = CounterSnapshot::take();
    if (traced) collector.enable();
    const Clock::time_point t0 = Clock::now();
    const PrismReport report = run_op(in, w, system.wide, threads);
    const double ms = seconds_since(t0) * 1e3;
    const std::string json = render(report);
    collector.disable();
    const CounterSnapshot after = CounterSnapshot::take();
    if (digest(json) != in.expected[w]) {
      result.fail("traced window " + std::to_string(w) + ": report digest differs");
      continue;
    }
    if (!traced) {
      untraced_ms.push_back(ms);
      continue;
    }
    traced_ms.push_back(ms);

    std::vector<obs::SpanRecord> spans = collector.drain();
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
    const std::vector<SpanNode> tree =
        build_span_tree(std::move(spans), {{"prism.analyze", "prism.job"}});
    std::map<std::string, double> m;
    add_counter_layers(m, before, after);
    m["core.timeline.steps"] = static_cast<double>(report.telemetry.steps_reconstructed);
    m["core.timeline.events"] = static_cast<double>(report.telemetry.timeline_events);
    m["obs.spans"] = static_cast<double>(tree.size());
    for (std::size_t k = 0; k < tree.size(); ++k) {
      const std::string_view name = tree[k].record.name;
      if (name == "bench.render") {
        m["core.render.report_ms"] = static_cast<double>(tree[k].record.dur_us) / 1e3;
        m["core.render.report_bytes"] = static_cast<double>(json.size());
      } else if (name == "prism.analyze") {
        const FanOut f = fan_out_of(tree, k, threads);
        m["core.prism.fanout_ms"] = f.fanout_ms;
        m["core.prism.serial_ms"] = f.serial_ms;
        m["core.prism.fanout_efficiency"] = f.efficiency;
      } else if (name == "bench.op") {
        const std::map<std::string, double> self = layer_self_ms(tree, k);
        double total = 0;
        for (const auto& [layer, v] : self) total += v;
        const double op_dur = static_cast<double>(tree[k].record.dur_us) / 1e3;
        // One job per window: nothing in the op overlaps, so the layers'
        // self times must account for the op's wall time.
        if (check_self_sum && std::abs(total - op_dur) > 0.1 * op_dur) {
          result.fail("per-layer self times sum to " + std::to_string(total) +
                      " ms of a " + std::to_string(op_dur) + " ms op");
        }
        m.insert(self.begin(), self.end());
        const double decode_ms = m["flow.decode_ms"];
        m["flow.decode_flows_per_s"] =
            decode_ms > 0 ? static_cast<double>(in.flows[w]) / (decode_ms / 1e3) : 0.0;
      }
    }
    for (const auto& [name, v] : m) layers[name].push_back(v);
  }
  for (auto& [name, values] : layers) {
    result.set(name, median(std::move(values)), "");
  }
  result.set("obs.trace_overhead_pct",
             (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%");
  result.facts["traced_ops"] = static_cast<double>(traced_ms.size());
  result.facts["untraced_ops"] = static_cast<double>(untraced_ms.size());

  std::ofstream trace_out(opt.trace_out);
  obs::write_chrome_trace(trace_out, all_spans);
}

/// Score windows [0, count) of a seed for quality on `threads` workers,
/// each generating windows and analyzing them with its own 1-thread Prism
/// (the report is the same at every thread count). Tallies are merged in
/// window order, so the sums are deterministic.
QualityCounts score_windows(bool bigjob, std::uint64_t seed, std::size_t count,
                            std::size_t threads) {
  std::vector<QualityTally> tallies(count);
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::string error;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      try {
        const ClusterTopology topology = ClusterTopology::build(
            bigjob ? bigjob_topology() : fleet_topology());
        const Prism prism(topology, with_threads(1));
        for (std::size_t w = next++; w < count; w = next++) {
          const SimWindow window =
              bigjob ? bigjob_window(seed, w) : fleet_window(seed, w);
          tallies[w].add(prism.analyze(window.sim.trace), window);
        }
      } catch (const std::exception& e) {
        const std::lock_guard lock(error_mu);
        error = e.what();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  if (!error.empty()) throw std::runtime_error("quality scoring: " + error);
  QualityCounts total;
  for (const QualityTally& tally : tallies) total += tally;
  return total;
}

}  // namespace

RunResult run_window_workload(const RunOptions& opt) {
  RunResult result;
  const bool bigjob = opt.workload == "bigjob-window";
  const TopologyConfig topology_config =
      bigjob ? bigjob_topology() : fleet_topology();

  // ---- inputs (untimed) ----
  TimedInputs in;
  in.lft = bigjob;
  for (std::size_t w = 0; w < kTimedWindows; ++w) {
    const SimWindow window = bigjob ? bigjob_window(opt.seed, w)
                                    : fleet_window(opt.seed, w);
    if (bigjob) {
      in.lft_paths.push_back(opt.work_dir + "/window" + std::to_string(w) + ".lft");
      write_lft_file(in.lft_paths.back(), window.sim.trace);
    } else {
      std::ostringstream csv;
      write_csv(csv, window.sim.trace);
      in.csv.push_back(std::move(csv).str());
    }
    in.flows.push_back(window.sim.trace.size());
  }

  // ---- peak memory of one operation ----
  // Taken before the process has started any thread: with several threads
  // the peak also depends on which malloc arenas each one touched, and
  // varied by +-30% between runs of one input.
  double peak_rss = 0;
  {
    reset_peak_rss();
    const ClusterTopology topology = ClusterTopology::build(topology_config);
    const Prism prism(topology, with_threads(1));
    static_cast<void>(render(run_op(in, 0, prism, 1)));
    peak_rss = peak_rss_mb();
  }

  // ---- set-up of the system under test (timed; median of repetitions) ----
  std::unique_ptr<System> system;
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    system.reset();
    const Clock::time_point t0 = Clock::now();
    system = std::make_unique<System>(topology_config, opt.threads);
    setup_s.push_back(seconds_since(t0));
  }

  // ---- reference digests and quality (untimed) ----
  for (std::size_t w = 0; w < kTimedWindows; ++w) {
    // The same public path at both thread counts must agree.
    ++result.attempted;
    const std::string wide_json = render(run_op(in, w, system->wide, opt.threads));
    const std::string single_json = render(run_op(in, w, system->single, 1));
    in.expected.push_back(digest(wide_json));
    if (wide_json != single_json) {
      result.fail("window " + std::to_string(w) +
                  ": nproc and 1-thread reports differ");
    }
  }
  const QualityCounts quality =
      score_windows(bigjob, opt.seed, kQualityWindows, opt.threads);

  if (opt.trace) {
    traced_pass(in, *system, opt, bigjob, result);
  } else {
    std::vector<OpSample> wide;
    std::vector<OpSample> single;
    std::size_t next_wide = 0;
    std::size_t next_single = 0;
    const double rounds = std::max(1.0, std::round(opt.seconds / kRoundSeconds));
    const double round = opt.seconds / rounds;
    for (double r = 0; r < rounds; ++r) {
      run_phase(in, system->wide, opt.threads, kWideShare * round, next_wide, wide,
                result);
      run_phase(in, system->single, 1, (1.0 - kWideShare) * round, next_single,
                single, result);
    }
    auto rate = [](const OpSample& s) { return static_cast<double>(s.flows) / s.seconds; };
    auto op_ms = [](const OpSample& s) { return s.seconds * 1e3; };
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", peak_rss, "MB");
    result.set("flows_per_s", median(each(wide, rate)), "flows/s");
    result.set("flows_per_s_1t", median(each(single, rate)), "flows/s");
    // The streaming metric, read the closed-loop way (see README): a
    // window's diagnosis is visible once its report is rendered.
    result.set("stream_flows_per_s",
               median(each(wide, [](const OpSample& s) {
                 return static_cast<double>(s.flows) / (s.seconds + s.render_s);
               })),
               "flows/s");
    result.set("pair_accuracy", quality.pair_accuracy(), "ratio");
    result.set("step_recall", quality.step_recall(), "ratio");
    result.set("step_error_pct", quality.step_error_pct(), "%");
    result.set("attribution_top1", quality.attribution_top1(), "ratio");
    result.set("incident_precision", quality.incident_precision(), "ratio");
    result.facts["ops_nproc"] = static_cast<double>(wide.size());
    result.facts["ops_1t"] = static_cast<double>(single.size());
    result.facts["analyze_p50_ms"] = median(each(wide, op_ms));
    // Not gated: it does not repeat within a tenth on a shared host (README).
    if (percentile_supported(wide.size(), 90)) {
      result.facts["analyze_p90_ms"] = percentile(each(wide, op_ms), 90);
    }
    // The tail the nproc operations support under the percentile rule.
    const double tail = highest_supported_percentile(wide.size());
    result.facts["analyze_tail_percentile"] = tail;
    result.facts["analyze_tail_ms"] = percentile(each(wide, op_ms), tail);
    result.facts["analyze_p50_ms_1t"] = median(each(single, op_ms));
  }
  result.facts["threads_nproc"] = static_cast<double>(opt.threads);
  result.facts["threads_1t"] = 1;
  result.facts["timed_windows"] = static_cast<double>(kTimedWindows);
  result.facts["quality_windows"] = static_cast<double>(kQualityWindows);
  for (const std::string& path : in.lft_paths) std::filesystem::remove(path);
  return result;
}

}  // namespace perfbench
