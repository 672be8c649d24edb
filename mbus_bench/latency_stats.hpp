// Latency samples and percentiles for the benchmark's reports.
//
// Rules (see README.md, "How timings are reported"):
//   * an operation that failed, or whose reply never arrived, is a sample
//     of +infinity: it misses every latency limit;
//   * a percentile is reported as supported only when at least ten
//     samples lie beyond it, and every report carries its sample count.
//
// WindowedLatency serves the open loops.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace mbus_bench {

/// Nearest-rank q-quantile (q in (0, 1]); NaN for an empty sample.
inline double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

/// Median (the mean of the middle two for an even count); NaN for an empty
/// sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(
                      values.begin(),
                      values.begin() + static_cast<std::ptrdiff_t>(mid))) /
         2.0;
}

/// Latencies of an open loop, grouped into windows of scheduled send
/// time. A percentile is computed per window and the first quartile over
/// windows reported. The shared machine's interference only ever adds
/// latency, in bursts that spoil some windows and not others, so the
/// better windows estimate the daemon's own behaviour, as a batch point's
/// best time does; a change that slows every request moves every window,
/// the better ones too.
class WindowedLatency {
 public:
  explicit WindowedLatency(double window_seconds)
      : window_ns_(window_seconds * 1e9) {}

  void add(std::int64_t scheduled_ns, double value) {
    const auto window =
        static_cast<std::size_t>(static_cast<double>(scheduled_ns) / window_ns_);
    if (windows_.size() <= window) windows_.resize(window + 1);
    windows_[window].push_back(value);
    ++count_;
  }
  void add_failure(std::int64_t scheduled_ns) {
    ++failures_;
    add(scheduled_ns, std::numeric_limits<double>::infinity());
  }

  std::int64_t count() const noexcept { return count_; }
  std::int64_t failures() const noexcept { return failures_; }

  /// First quartile over windows of each window's nearest-rank
  /// q-quantile; windows holding fewer than `min_samples` samples (a short
  /// tail at the end of the timeline) are skipped.
  double quantile(double q, std::size_t min_samples) const {
    std::vector<double> per_window;
    for (const std::vector<double>& w : windows_) {
      if (w.size() >= min_samples) per_window.push_back(nearest_rank(w, q));
    }
    return nearest_rank(std::move(per_window), 0.25);
  }

  /// The smallest window holds at least ten samples beyond the q-quantile.
  bool supports(double q, std::size_t min_samples) const {
    bool any = false;
    for (const std::vector<double>& w : windows_) {
      if (w.size() < min_samples) continue;
      any = true;
      if (static_cast<double>(w.size()) * (1.0 - q) < 10.0) return false;
    }
    return any;
  }

  std::size_t windows(std::size_t min_samples) const {
    return static_cast<std::size_t>(std::count_if(
        windows_.begin(), windows_.end(),
        [&](const std::vector<double>& w) { return w.size() >= min_samples; }));
  }

 private:
  double window_ns_;
  std::vector<std::vector<double>> windows_;
  std::int64_t count_ = 0;
  std::int64_t failures_ = 0;
};

}  // namespace mbus_bench
