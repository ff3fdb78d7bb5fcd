// What one benchmark run is asked to do and what it reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// fleet-stream nominal open-loop rate, flows per second.
  double stream_rate = 0;
  /// The `nproc` thread count of the *-window workloads (all hardware
  /// threads).
  std::size_t threads = 1;
  /// Working directory for inputs, sockets and snapshots (relative paths
  /// keep Unix socket names short).
  std::string work_dir;
  /// Where a traced run writes its spans (Chrome trace_event JSON).
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
  std::map<std::string, Metric> metrics;
  /// Extra run facts for the context line (thread counts, sample counts).
  std::map<std::string, double> facts;
  /// False when the measurement itself is not trustworthy (e.g. the
  /// open-loop generator fell behind); the run then reports no result.
  bool valid = true;
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    ++failed;
    if (notes.size() < 20) notes.push_back(why);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Peak resident set size of this process since the last
/// reset_peak_rss(), MB.
[[nodiscard]] double peak_rss_mb();
/// Return freed heap pages to the system and restart peak-RSS accounting,
/// so that the next peak reflects the memory the measured phase holds
/// (where unsupported, the peak stays the lifetime peak).
void reset_peak_rss();

/// 64-bit FNV-1a of a byte string (report and journal digests).
[[nodiscard]] std::uint64_t digest(const std::string& bytes);

[[nodiscard]] RunResult run_window_workload(const RunOptions& options);
[[nodiscard]] RunResult run_stream_workload(const RunOptions& options);

}  // namespace perfbench
