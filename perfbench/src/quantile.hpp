// Exact quantiles over raw samples.
//
// The benchmark never reads a latency out of histogram buckets: every
// timing is kept as a raw sample and its quantiles are interpolated
// between the two closest ranks of the sorted samples (Hyndman and
// Fan's type 7, the default of numpy and of Python's
// statistics.quantiles(method="inclusive")).  A tail quantile is only
// trustworthy when enough samples lie beyond it, so the count beyond
// is reported beside it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `sorted` (ascending); 0 for no samples.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Samples ranked strictly above the q-quantile's interpolation point.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto lo = static_cast<std::size_t>(std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - lo;
}

/// Median and p99 of a sample set, with its size and the tail support.
struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Samples beyond p99; the p99 is reported as resolved when >= 10.
  std::size_t beyond_p99 = 0;
};

inline Distribution distribution(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Distribution d;
  d.n = samples.size();
  d.p50 = quantile_sorted(samples, 0.50);
  d.p99 = quantile_sorted(samples, 0.99);
  d.beyond_p99 = samples_beyond(samples.size(), 0.99);
  return d;
}

inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.5);
}

}  // namespace perfbench
