#include "llmprism/common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace llmprism::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double mean_abs_deviation(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += std::abs(x - m);
  return acc / static_cast<double>(xs.size());
}

double median_abs_deviation(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = median(xs);
  std::vector<double> deviations;
  deviations.reserve(xs.size());
  for (double x : xs) deviations.push_back(std::abs(x - m));
  return percentile_in_place(deviations, 50.0);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  std::vector<double> copy(xs.begin(), xs.end());
  return percentile_in_place(copy, p);
}

double percentile_in_place(std::span<double> xs, double p) {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double idx = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - std::floor(idx);
  // Selection, not a sort: after nth_element every element past `lo` is
  // >= xs[lo], so the next order statistic is the minimum of that upper
  // partition. Same two order statistics as a full sort, same expression.
  const auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), lo_it, xs.end());
  const double lo_value = *lo_it;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(lo_it + 1, xs.end());
  return lo_value + (hi_value - lo_value) * frac;
}

std::int64_t mode(std::span<const std::int64_t> xs) {
  if (xs.empty()) return 0;
  std::unordered_map<std::int64_t, std::size_t> counts;
  counts.reserve(xs.size());
  for (std::int64_t x : xs) ++counts[x];
  std::int64_t best = xs.front();
  std::size_t best_count = 0;
  for (const auto& [value, count] : counts) {
    if (count > best_count || (count == best_count && value < best)) {
      best = value;
      best_count = count;
    }
  }
  return best;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace llmprism::stats
