// Declarations shared by the benchmark's batch workloads (mbus_bench.cpp)
// and serving workloads (serve.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "topology/factory.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace mbus_bench {

/// Cold starts before the measurement window, and as many after it: the
/// median of both halves is setup_s, so that a burst of interference at
/// one moment does not set it.
constexpr int kSetupRepeats = 15;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the daemon's socket, its metrics
  /// snapshot and the trace file.
  std::string workdir;
  std::string mbusd_path;
  std::string self_path;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Metric name -> value; units come from the metric tables in
  /// mbus_bench.cpp, which mirror BENCHMARK.json.
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// digests, the first check failures).
  std::vector<std::string> notes;
  std::int64_t check_failures = 0;

  /// A check that fails on every pass would fail thousands of times in a
  /// run; only the first few are described.
  void fail_check(const std::string& what) {
    correct = false;
    if (++check_failures <= 20) notes.push_back("CHECK FAILED: " + what);
  }
};

/// FNV-1a over a run's answers; runs print its low 48 bits as
/// "result.digest". A change that only makes the code faster must not move
/// it.
class Digest {
 public:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001B3ULL;
    }
  }
  void add(double value) { add(&value, sizeof value); }
  void add(const std::string& text) { add(text.data(), text.size()); }
  double value() const {
    return static_cast<double>(hash_ & ((std::uint64_t{1} << 48) - 1));
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

inline constexpr const char* kSchemes[] = {"full", "single", "partial-g",
                                           "k-classes"};

/// A request rate in [0.05, 1] as a two-decimal literal.
std::string draw_rate(mbus::Xoshiro256& rng);

/// The workload of a service request: "uniform", or "hier4" — the paper's
/// Section IV two-level {4, N/4} hierarchy with aggregate fractions
/// 0.6/0.3/0.1 (the service builds the same one).
mbus::Workload make_workload(const std::string& kind, int n,
                             const mbus::BigRational& rate);

/// In a traced run, time the public calls evaluate() makes for one point
/// (X, the closed form, the cost summary), each as its own span, and
/// return their total in nanoseconds. `tag` is the system size N.
std::int64_t probe_closed_form(Tracer& tracer, const mbus::Topology& topology,
                               const mbus::Workload& workload, int tag);

/// Build the point's topology and workload the way a caller of the
/// library does (rate literal parsed, workload built, topology built),
/// each call in its own span.
struct BuiltPoint {
  std::unique_ptr<mbus::Topology> topology;
  mbus::Workload workload;
};
BuiltPoint build_point(Tracer& tracer, const mbus::TopologySpec& spec,
                       const std::string& workload_kind,
                       const std::string& rate, int tag);

/// Peak resident set size of process `pid` (0 = this process), MiB.
double peak_rss_mb(int pid);

/// The monotonic clock, in seconds and in nanoseconds.
double now_s();
std::int64_t now_ns();

inline bool is_serving(const std::string& workload) {
  return workload.rfind("serve_", 0) == 0;
}

/// Where a traced serving run asks mbusd to write its --metrics-out
/// snapshot.
inline std::string daemon_metrics_path(const RunOptions& options) {
  return options.workdir + "/mbusd-metrics-" + options.workload + ".json";
}

/// serve_light and serve_mixed (serve.cpp).
RunResult run_serving(const RunOptions& options, Tracer& tracer);

}  // namespace mbus_bench
