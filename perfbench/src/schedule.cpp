#include "schedule.hpp"

#include <algorithm>

#include "measure.hpp"

namespace perfbench {

std::vector<double> due_offsets(const std::vector<std::uint64_t>& flows,
                                double flows_per_s) {
  std::vector<double> due;
  due.reserve(flows.size());
  std::uint64_t sent = 0;
  for (const std::uint64_t n : flows) {
    due.push_back(static_cast<double>(sent) / flows_per_s);
    sent += n;
  }
  return due;
}

double generator_lag(double due, double start, double prev_reply) {
  return std::max(0.0, start - std::max(due, prev_reply));
}

GeneratorReport summarize_generator(const std::vector<SendTiming>& sends,
                                    double late_after_s,
                                    double max_late_fraction) {
  GeneratorReport report;
  std::vector<double> lags;
  lags.reserve(sends.size());
  double prev_reply = -1e300;
  for (const SendTiming& s : sends) {
    const double lag = generator_lag(s.due, s.start, prev_reply);
    lags.push_back(lag * 1e3);
    if (lag > late_after_s) ++report.late_sends;
    prev_reply = s.reply;
  }
  report.lag_p99_ms = percentile(std::move(lags), 99.0);
  report.fell_behind =
      static_cast<double>(report.late_sends) >
      max_late_fraction * static_cast<double>(sends.size());
  return report;
}

std::vector<double> detection_latencies(
    const std::vector<double>& window_due,
    const std::vector<std::pair<double, std::uint64_t>>& observations) {
  std::vector<double> latencies;
  latencies.reserve(window_due.size());
  for (const auto& [t, count] : observations) {
    const std::size_t visible =
        std::min<std::size_t>(static_cast<std::size_t>(count), window_due.size());
    while (latencies.size() < visible) {
      latencies.push_back(t - window_due[latencies.size()]);
    }
  }
  return latencies;
}

}  // namespace perfbench
