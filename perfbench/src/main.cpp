// perfbench — the repository benchmark program.
//
//   perfbench --workload <bigjob-window|fleet-window|fleet-stream>
//             --seed N --seconds S --trace 0|1 --stream-rate FLOWS_PER_S
//             --work-dir DIR
//
// Prints a `context {...}` line with the run context, then as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one. Exits 1 when any operation failed its correctness check and
// 3 when the measurement itself is invalid (then no result line).
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "layers.hpp"
#include "workload.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); ru_maxrss is the lifetime peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

const char* const kEndToEnd[] = {
    "setup_s",           "peak_rss_mb",        "flows_per_s",
    "flows_per_s_1t",    "pair_accuracy",      "step_recall",
    "step_error_pct",    "attribution_top1",   "incident_precision",
    "stream_flows_per_s"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --stream-rate R --work-dir DIR\n",
               why.c_str());
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--stream-rate") {
        opt.stream_rate = std::stod(value);
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (opt.workload != "bigjob-window" && opt.workload != "fleet-window" &&
      opt.workload != "fleet-stream") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (!(opt.seconds > 0)) usage("bad --seconds");
  opt.trace_out = opt.work_dir + "/trace-" + opt.workload + "-" +
                  std::to_string(opt.seed) + ".json";
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions opt = parse(argc, argv);
  std::filesystem::create_directories(opt.work_dir);

  RunResult result;
  try {
    result = opt.workload == "fleet-stream" ? run_stream_workload(opt)
                                            : run_window_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string context;
  auto field = [&](const std::string& key, const std::string& json_value) {
    context += context.empty() ? "{" : ",";
    context += json_string(key);
    context += ':';
    context += json_value;
  };
  field("workload", json_string(opt.workload));
  field("seed", std::to_string(opt.seed));
  field("seconds", json_number(opt.seconds));
  field("trace", opt.trace ? "true" : "false");
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("cpu_model", json_string(cpu_model()));
  field("compiler", json_string(PERFBENCH_COMPILER));
  field("build_type", json_string(build_type));
  field("release_build", build_type == "Release" ? "true" : "false");
  field("valid", result.valid ? "true" : "false");
  for (const auto& [name, value] : result.facts) field(name, json_number(value));
  context += '}';
  std::printf("context %s\n", context.c_str());
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release\n",
                 build_type.c_str());
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  if (!result.valid) {
    std::fprintf(stderr, "perfbench: invalid measurement, no result\n");
    return 3;
  }

  std::string metrics;
  auto add = [&](const std::string& name, const Metric& m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name);
    metrics += ": {\"value\": ";
    metrics += json_number(m.value);
    metrics += ", \"unit\": ";
    metrics += json_string(m.unit);
    metrics += "}";
  };
  if (opt.trace) {
    fill_missing_layers(result);
    for (const auto& [name, unit] : per_layer_catalogue()) {
      add(name, {result.metrics.at(name).value, unit});
    }
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = result.metrics.find(name);
      if (it == result.metrics.end()) {
        std::fprintf(stderr, "perfbench: internal error: no %s\n", name);
        return 2;
      }
      add(name, it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.failed == 0 ? 0 : 1;
}
