// prism — command-line front end, structured as subcommands:
//
//   prism analyze <flows.csv|flows.lft> [options]
//       one-shot diagnosis of a whole trace (CSV or binary LFT,
//       auto-detected by magic); --window S truncates to the first S
//       seconds.
//   prism monitor <flows.csv|flows.lft> --window S [options]
//       stream the trace through the OnlineMonitor in S-second analysis
//       windows (warm cross-window session by default; --no-carry for
//       stateless per-window analysis).
//   prism convert <in> <out> [--format csv|lft] [--chunk-seconds S]
//       translate between CSV and LFT (default output format by <out>
//       extension); --chunk-seconds splits the output into time-sliced
//       chunk files (<out base>.NNN.<ext>) a client can stream at prismd.
//   prism serve [options]
//       run the long-running diagnosis daemon (same entry point as the
//       prismd binary; see serve/daemon.hpp and DESIGN.md §14).
//
// Every subcommand shares one declarative flag parser (common/flags.hpp);
// an unknown option (or subcommand) is always an error: exit code 2 plus a
// usage hint.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "llmprism/llmprism.hpp"

using namespace llmprism;

namespace {

void usage() {
  std::cerr <<
      "usage: prism <subcommand> [options]\n"
      "\n"
      "  analyze <trace> [options]   one-shot diagnosis of a flow trace\n"
      "  monitor <trace> --window S  windowed online monitoring of a trace\n"
      "  convert <in> <out>          translate CSV <-> LFT (and chunk)\n"
      "  serve [options]             run the prismd diagnosis daemon\n"
      "\n"
      "run 'prism <subcommand> --help' for the subcommand's options.\n"
      "input format (CSV or binary LFT) is auto-detected by magic.\n";
}

/// Options shared by `analyze` and `monitor`.
struct CommonOptions {
  TopologyConfig topology{.num_machines = 0, .gpus_per_machine = 8,
                          .machines_per_leaf = 16, .num_spines = 4};
  std::uint64_t ingest_threads = 0;
  bool json = false;
  bool timelines = false;
  bool no_reconstruct = false;
  bool no_attribute = false;
  std::string log_level;
  ExportConfig exports;
};

void add_common_flags(cli::FlagSet& flags, CommonOptions& o) {
  flags.flag("--machines", "N",
             "machines in the cluster (default: derived from the trace)",
             &o.topology.num_machines);
  flags.flag("--gpus-per-machine", "N", "GPUs per machine (default 8)",
             &o.topology.gpus_per_machine);
  flags.flag("--machines-per-leaf", "N", "machines per leaf switch",
             &o.topology.machines_per_leaf);
  flags.flag("--spines", "N", "spine switches", &o.topology.num_spines);
  flags.flag("--ingest-threads", "N", "CSV decode threads (0 = hardware)",
             &o.ingest_threads);
  flags.flag("--json", "emit the report as JSON instead of text", &o.json);
  flags.flag("--timelines", "include per-rank timeline lanes in text output",
             &o.timelines);
  flags.flag("--no-reconstruct", "skip timeline reconstruction (faster)",
             &o.no_reconstruct);
  flags.flag("--no-attribute", "skip root-cause attribution",
             &o.no_attribute);
  flags.flag("--log-level", "LEVEL", "debug|info|warn|error|off",
             &o.log_level);
  flags.flag("--perfetto-out", "FILE",
             "reconstructed timelines as Chrome trace JSON (ui.perfetto.dev)",
             &o.exports.perfetto_out);
  flags.flag("--series-out", "FILE",
             "per-job per-window metrics (OpenMetrics; .jsonl -> JSONL)",
             &o.exports.series_out);
  flags.flag("--journal-out", "FILE",
             "incident lifecycle journal (JSONL, open -> update -> resolve)",
             &o.exports.journal_out);
  flags.flag("--metrics-out", "FILE",
             "metrics registry dump (Prometheus text; .json -> JSON)",
             &o.exports.metrics_out);
  flags.flag("--trace-out", "FILE",
             "pipeline trace spans as Chrome trace_event JSON",
             &o.exports.trace_out);
}

/// Handle --help / parse errors uniformly. Returns -1 to proceed, else the
/// process exit code (0 for help, 2 for errors — including unknown
/// options, which FlagSet always rejects).
int finish_parse(const cli::FlagSet& flags, const cli::ParseResult& parsed) {
  if (parsed.help) {
    std::cout << flags.usage();
    return 0;
  }
  if (!parsed.ok) {
    for (const std::string& e : parsed.errors) {
      std::cerr << flags.program() << ": " << e << '\n';
    }
    std::cerr << "run '" << flags.program() << " --help' for usage\n";
    return 2;
  }
  return -1;
}

/// Apply --log-level / validate exports; returns -1 or an exit code.
int apply_common(const cli::FlagSet& flags, const CommonOptions& o) {
  if (!o.log_level.empty()) {
    const auto level = log::parse_level(o.log_level);
    if (!level) {
      std::cerr << flags.program() << ": unknown log level " << o.log_level
                << '\n';
      return 2;
    }
    log::set_level(*level);
  }
  if (const auto errors = o.exports.validate(); !errors.empty()) {
    for (const std::string& e : errors) {
      std::cerr << flags.program() << ": " << e << '\n';
    }
    return 2;
  }
  return -1;
}

/// Load a flow trace from either format, auto-detected by magic. On CSV
/// parse errors, prints up to 10 diagnostics and returns nullopt;
/// `format_out` is "csv" or "lft". Used by `prism convert`, which needs an
/// owning AoS trace for the writers; the analysis path uses load_flows.
std::optional<FlowTrace> load_trace(const std::string& path,
                                    std::size_t ingest_threads,
                                    std::string& format_out) {
  if (is_lft_file(path)) {
    format_out = "lft";
    try {
      const MappedFlowTrace mapped(path);
      return mapped.to_trace();
    } catch (const std::exception& e) {
      std::cerr << "prism: " << path << ": " << e.what() << '\n';
      return std::nullopt;
    }
  }
  format_out = "csv";
  std::ifstream in(path);
  if (!in) {
    std::cerr << "prism: cannot open " << path << '\n';
    return std::nullopt;
  }
  ParseResult parsed = read_csv_checked(in, {.num_threads = ingest_threads});
  if (!parsed.ok()) {
    constexpr std::size_t kMaxDiagnostics = 10;
    const std::size_t shown = std::min(parsed.errors.size(), kMaxDiagnostics);
    for (std::size_t e = 0; e < shown; ++e) {
      std::cerr << "prism: " << path << ':' << parsed.errors[e].line << ": "
                << parsed.errors[e].message << '\n';
    }
    if (parsed.errors.size() > shown) {
      std::cerr << "prism: ... and " << parsed.errors.size() - shown
                << " more bad lines\n";
    }
    return std::nullopt;
  }
  return std::move(parsed.trace);
}

/// The analysis input: a sorted columnar view plus whatever storage backs
/// it. A sorted LFT file is analyzed straight off the mapping — the view's
/// columns alias the mmap'd sections and no flow is ever copied. CSV input
/// (and the rare unsorted LFT) lands in owning columns, sorted once here
/// at the boundary.
struct LoadedFlows {
  std::optional<MappedFlowTrace> mapped;  ///< keeps LFT-backed views alive
  FlowColumns columns;                    ///< owning storage otherwise
  FlowView view;                          ///< what the pipeline consumes
  std::string format;                     ///< "csv" or "lft"
};

std::optional<LoadedFlows> load_flows(const std::string& path,
                                      std::size_t ingest_threads) {
  LoadedFlows out;
  if (is_lft_file(path)) {
    out.format = "lft";
    try {
      out.mapped.emplace(path);
    } catch (const std::exception& e) {
      std::cerr << "prism: " << path << ": " << e.what() << '\n';
      return std::nullopt;
    }
    out.view = out.mapped->view();
    if (out.view.sorted || out.view.verify_sorted()) {
      out.view.sorted = true;  // zero-copy fast path
      return out;
    }
    // Unsorted file: one boundary gather + sort into owning columns.
    std::vector<std::uint32_t> rows(out.view.size());
    std::iota(rows.begin(), rows.end(), 0u);
    out.columns = FlowColumns::gather(out.view, rows,
                                      /*rows_sorted_subset=*/false);
    out.columns.sort();
    out.mapped.reset();
    out.view = out.columns.view();
    return out;
  }
  out.format = "csv";
  std::ifstream in(path);
  if (!in) {
    std::cerr << "prism: cannot open " << path << '\n';
    return std::nullopt;
  }
  ParseResult parsed = read_csv_checked(in, {.num_threads = ingest_threads});
  if (!parsed.ok()) {
    constexpr std::size_t kMaxDiagnostics = 10;
    const std::size_t shown = std::min(parsed.errors.size(), kMaxDiagnostics);
    for (std::size_t e = 0; e < shown; ++e) {
      std::cerr << "prism: " << path << ':' << parsed.errors[e].line << ": "
                << parsed.errors[e].message << '\n';
    }
    if (parsed.errors.size() > shown) {
      std::cerr << "prism: ... and " << parsed.errors.size() - shown
                << " more bad lines\n";
    }
    return std::nullopt;
  }
  parsed.trace.sort();
  out.columns = FlowColumns(parsed.trace);
  out.view = out.columns.view();
  return out;
}

/// Fill in a trace-derived machine count when --machines was not given.
TopologyConfig derive_topology(TopologyConfig config, const FlowView& view) {
  if (config.num_machines == 0) {
    std::uint32_t max_gpu = 0;
    for (std::size_t i = 0; i < view.size(); ++i) {
      max_gpu = std::max({max_gpu, view.src[i], view.dst[i]});
    }
    config.num_machines = max_gpu / config.gpus_per_machine + 1;
  }
  return config;
}

PrismConfig prism_config_for(const CommonOptions& o) {
  PrismConfig config;
  config.reconstruct_timelines = !o.no_reconstruct;
  config.attribute = !o.no_attribute;
  return config;
}

int write_sink_files(ExportSinks& sinks) {
  const std::vector<std::string> errors = sinks.write_files();
  for (const std::string& e : errors) std::cerr << "prism: " << e << '\n';
  return errors.empty() ? 0 : 1;
}

int run_one_shot(const CommonOptions& options, const std::string& trace_path,
                 std::optional<double> window_seconds) {
  std::optional<LoadedFlows> loaded =
      load_flows(trace_path, options.ingest_threads);
  if (!loaded) return 1;
  // The pipeline consumes this sorted view; on a sorted LFT file its
  // columns alias the mapping for the whole run — zero flow copies.
  FlowView view = loaded->view;
  if (view.empty()) {
    std::cerr << "prism: trace is empty\n";
    return 1;
  }
  if (window_seconds) {
    const TimeNs begin = view.time_span().begin;
    view = view.window({begin, begin + from_seconds(*window_seconds)});
  }

  try {
    const auto topology =
        ClusterTopology::build(derive_topology(options.topology, view));
    PrismConfig prism_config = prism_config_for(options);
    if (const auto errors = prism_config.validate(); !errors.empty()) {
      std::cerr << "prism: invalid configuration:\n";
      for (const std::string& e : errors) std::cerr << "  - " << e << '\n';
      return 2;
    }
    ExportSinks sinks(options.exports);  // enables span tracing if requested

    const Prism prism(topology, prism_config);
    const PrismReport report = prism.analyze(view);
    sinks.add_window({view.time_span(), &report, {}});
    if (const int rc = write_sink_files(sinks); rc != 0) return rc;

    if (options.json) {
      write_report_json(std::cout, report);
      return 0;
    }
    std::cout << "analyzed " << view.size() << " flows (" << loaded->format
              << ") over " << to_seconds(view.time_span().length())
              << " s on a " << topology.num_gpus() << "-GPU topology\n\n"
              << render_report_summary(report);
    if (options.timelines) {
      for (const JobAnalysis& job : report.jobs) {
        if (job.timelines.empty()) continue;
        const std::size_t lanes =
            std::min<std::size_t>(8, job.timelines.size());
        std::cout << "\njob " << job.id << " timelines (first " << lanes
                  << " ranks):\n"
                  << render_timeline_chart(
                         std::span(job.timelines.data(), lanes),
                         {.width = 110});
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "prism: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

int run_monitor_on(const CommonOptions& options, const std::string& trace_path,
                   double window_seconds, bool carry) {
  std::optional<LoadedFlows> loaded =
      load_flows(trace_path, options.ingest_threads);
  if (!loaded) return 1;
  const FlowView view = loaded->view;
  if (view.empty()) {
    std::cerr << "prism: trace is empty\n";
    return 1;
  }

  try {
    const auto topology =
        ClusterTopology::build(derive_topology(options.topology, view));
    MonitorConfig monitor_config;
    monitor_config.prism = prism_config_for(options);
    monitor_config.window = from_seconds(window_seconds);
    monitor_config.carry_state = carry;
    if (const auto errors = monitor_config.validate(); !errors.empty()) {
      std::cerr << "prism: invalid monitor configuration:\n";
      for (const std::string& e : errors) std::cerr << "  - " << e << '\n';
      return 2;
    }
    ExportSinks sinks(options.exports);  // enables span tracing if requested

    OnlineMonitor monitor(topology, monitor_config);
    std::vector<MonitorTick> ticks = monitor.ingest(view);
    if (auto tail = monitor.flush()) ticks.push_back(std::move(*tail));
    for (const MonitorTick& tick : ticks) {
      sinks.add_window(export_view(tick));
      if (options.json) {
        write_report_json(std::cout, tick.report);
        continue;
      }
      std::size_t alerts = 0;
      for (const JobAnalysis& job : tick.report.jobs) {
        alerts += job.step_alerts.size() + job.group_alerts.size();
      }
      std::cout << "window [" << to_seconds(tick.window.begin) << "s, "
                << to_seconds(tick.window.end) << "s): "
                << tick.report.telemetry.flows_total << " flows, "
                << tick.report.jobs.size() << " jobs, " << alerts
                << " job alerts\n";
    }
    if (!options.json) {
      const MonitorStats& stats = monitor.stats();
      std::cout << "\nmonitor: " << stats.windows_completed << " windows, "
                << stats.flows_ingested << " flows ingested ("
                << stats.flows_dropped_late << " dropped late), "
                << stats.stable_ids_created << " stable job ids, "
                << stats.step_alerts << " step / " << stats.group_alerts
                << " group alerts\n";
      if (const PrismSession* session = monitor.session()) {
        const SessionCounters& c = session->counters();
        std::cout << "session: recognition " << c.recognition_reuses
                  << " reused / " << c.recognition_rebuilds
                  << " rebuilt, pairs " << c.pairs_reused << " reused / "
                  << c.pairs_reclassified << " reclassified, boundary "
                  << c.boundary_steps_held << " held / "
                  << c.boundary_steps_carried << " carried, "
                  << c.ewma_step_alerts << " ewma alerts, "
                  << session->jobs_tracked() << " jobs tracked\n";
      }
    }
    return write_sink_files(sinks);
  } catch (const std::exception& e) {
    std::cerr << "prism: " << e.what() << '\n';
    return 1;
  }
}

int run_analyze(int argc, const char* const* argv, int begin) {
  CommonOptions common;
  std::optional<double> window_seconds;
  std::vector<std::string> positionals;

  cli::FlagSet flags("prism analyze");
  flags.flag("--window", "S", "analyze only the first S seconds of the trace",
             &window_seconds);
  add_common_flags(flags, common);
  flags.positionals("trace", 1, 1, &positionals);

  if (const int rc = finish_parse(flags, flags.parse(argc, argv, begin));
      rc >= 0) {
    return rc;
  }
  if (const int rc = apply_common(flags, common); rc >= 0) return rc;
  return run_one_shot(common, positionals[0], window_seconds);
}

int run_monitor_cmd(int argc, const char* const* argv, int begin) {
  CommonOptions common;
  double window_seconds = 60.0;
  bool no_carry = false;
  std::vector<std::string> positionals;

  cli::FlagSet flags("prism monitor");
  flags.flag("--window", "S", "analysis window length in seconds (default 60)",
             &window_seconds);
  flags.flag("--no-carry",
             "disable the warm cross-window session (stateless analysis)",
             &no_carry);
  add_common_flags(flags, common);
  flags.positionals("trace", 1, 1, &positionals);

  if (const int rc = finish_parse(flags, flags.parse(argc, argv, begin));
      rc >= 0) {
    return rc;
  }
  if (const int rc = apply_common(flags, common); rc >= 0) return rc;
  return run_monitor_on(common, positionals[0], window_seconds, !no_carry);
}

/// Insert a chunk index before the output extension:
/// "flows.lft" -> "flows.007.lft"; extensionless paths append ".007".
std::string chunk_path(const std::string& out_path, std::size_t index) {
  char tag[8];
  std::snprintf(tag, sizeof(tag), "%03zu", index);
  const std::size_t dot = out_path.rfind('.');
  const std::size_t slash = out_path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return out_path + "." + tag;
  }
  return out_path.substr(0, dot) + "." + tag + out_path.substr(dot);
}

int run_convert(int argc, const char* const* argv, int begin) {
  std::string format;
  std::uint64_t ingest_threads = 0;
  std::optional<double> chunk_seconds;
  std::vector<std::string> positionals;

  cli::FlagSet flags("prism convert");
  flags.flag("--format", "csv|lft",
             "output format (default: by <out> extension, .lft -> lft)",
             &format);
  flags.flag("--ingest-threads", "N", "CSV decode threads (0 = hardware)",
             &ingest_threads);
  flags.flag("--chunk-seconds", "S",
             "split the output into S-second time-sliced chunk files "
             "(<out base>.NNN.<ext>) for streaming at prismd",
             &chunk_seconds);
  flags.positionals("<in> <out>", 2, 2, &positionals);

  if (const int rc = finish_parse(flags, flags.parse(argc, argv, begin));
      rc >= 0) {
    return rc;
  }
  const std::string& in_path = positionals[0];
  const std::string& out_path = positionals[1];
  if (format.empty()) {
    format = out_path.ends_with(".lft") ? "lft" : "csv";
  }
  if (format != "csv" && format != "lft") {
    std::cerr << "prism convert: unknown format " << format
              << " (want csv or lft)\n";
    return 2;
  }
  if (chunk_seconds && *chunk_seconds <= 0) {
    std::cerr << "prism convert: --chunk-seconds must be positive\n";
    return 2;
  }

  std::string in_format;
  std::optional<FlowTrace> trace =
      load_trace(in_path, ingest_threads, in_format);
  if (!trace) return 1;

  const auto write_one = [&](const std::string& path, const FlowTrace& t) {
    if (format == "lft") {
      write_lft_file(path, t);
    } else {
      write_csv_file(path, t);
    }
  };

  try {
    if (chunk_seconds) {
      // Time-sliced chunks need time order; a chunked file set is meant to
      // be replayed window by window, so the sort is part of the contract.
      trace->sort();
      const TimeWindow span = trace->span();
      const DurationNs chunk_ns = from_seconds(*chunk_seconds);
      std::size_t chunks = 0;
      std::size_t rows = 0;
      for (TimeNs chunk_begin = span.begin; chunk_begin < span.end;
           chunk_begin += chunk_ns) {
        const FlowTrace slice =
            trace->window({chunk_begin, chunk_begin + chunk_ns});
        if (slice.empty()) continue;
        write_one(chunk_path(out_path, chunks), slice);
        ++chunks;
        rows += slice.size();
      }
      std::cout << "converted " << rows << " flows: " << in_path << " ("
                << in_format << ") -> " << chunks << " " << format
                << " chunks of " << *chunk_seconds << "s ("
                << chunk_path(out_path, 0) << " ...)\n";
      return 0;
    }
    write_one(out_path, *trace);
  } catch (const std::exception& e) {
    std::cerr << "prism convert: " << e.what() << '\n';
    return 1;
  }

  std::error_code ec;
  const auto in_bytes = std::filesystem::file_size(in_path, ec);
  const auto out_bytes = std::filesystem::file_size(out_path, ec);
  std::cout << "converted " << trace->size() << " flows: " << in_path << " ("
            << in_bytes << " B, " << in_format << ") -> " << out_path << " ("
            << out_bytes << " B, " << format << ", "
            << (in_bytes ? static_cast<double>(out_bytes) /
                               static_cast<double>(in_bytes)
                         : 0.0)
            << "x); sorted=" << (trace->is_sorted() ? "yes" : "no") << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "analyze") return run_analyze(argc, argv, 2);
  if (command == "monitor") return run_monitor_cmd(argc, argv, 2);
  if (command == "convert") return run_convert(argc, argv, 2);
  if (command == "serve") return serve::run_main(argc, argv, 2);
  if (command == "help" || command == "--help" || command == "-h") {
    usage();
    return 0;
  }
  std::cerr << "prism: unknown subcommand '" << command << "'\n";
  usage();
  return 2;
}
