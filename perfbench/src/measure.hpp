// Sample statistics for the benchmark's reports.
//
// Percentile rule: a timing is reported as its median plus the highest
// percentile that still has at least ten samples beyond it (nearest-rank
// definition), together with the sample count — so p90 needs >= 100
// samples and p99 >= 1000.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
/// the sorted samples; p in (0, 100]. Returns 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Middle value (mean of the two middle values for an even count).
[[nodiscard]] double median(std::vector<double> samples);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// True when the p-th percentile of n samples has >= kTailSamples beyond it.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// The highest of 50, 90, 99 and 99.9 that n samples support; 0 when even
/// the median is not supported.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

}  // namespace perfbench
