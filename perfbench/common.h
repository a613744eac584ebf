// Shared helpers of the end-to-end benchmark: clock, order statistics, and
// the named metric record every report is built from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 for an empty set.
/// Failed requests enter as +infinity, so they count as missing every limit.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

}  // namespace perfbench
