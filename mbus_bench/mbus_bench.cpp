// mbus_bench: one layered benchmark for the whole system (README.md).
//
//   mbus_bench --workload tables --seed 1 --seconds 20 --trace 0
//
// Runs one workload, checks its answers, prints a human-readable report
// and, as its last line, one JSON object
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": v, "unit": u}. Exits 1 when a check
// fails or a metric could not be measured. The batch workloads (tables,
// simulate) live in this file, the serving workloads in serve.cpp.
//
// A traced run spends most of its window on the named workload and the
// rest on a short slice of each other workload: a per-layer metric comes
// from the named workload when it calls that layer, otherwise from the
// slice of a workload that does, so every traced run measures every layer.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/bandwidth.hpp"
#include "analysis/exact_bandwidth.hpp"
#include "core/evaluate.hpp"
#include "latency_stats.hpp"
#include "mbus_bench.hpp"
#include "obs/metrics.hpp"
#include "paperdata/paper_tables.hpp"
#include "sim/engine.hpp"
#include "topology/cost.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/subprocess.hpp"

namespace mbus_bench {

using mbus::BigRational;
using mbus::cat;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb(int pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : cat("/proc/", pid, "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string draw_rate(mbus::Xoshiro256& rng) {
  const std::uint64_t hundredths = 5 + rng.below(96);
  if (hundredths == 100) return "1";
  char text[8];
  std::snprintf(text, sizeof text, "0.%02u", static_cast<unsigned>(hundredths));
  return text;
}

mbus::Workload make_workload(const std::string& kind, int n,
                             const BigRational& rate) {
  if (kind == "uniform") return mbus::Workload::uniform(n, n, rate);
  return mbus::Workload::hierarchical_nxn(
      {4, n / 4},
      {BigRational::parse("0.6"), BigRational::parse("0.3"),
       BigRational::parse("0.1")},
      rate);
}

BuiltPoint build_point(Tracer& tracer, const mbus::TopologySpec& spec,
                       const std::string& workload_kind,
                       const std::string& rate, int tag) {
  std::optional<BigRational> r;
  {
    auto span = tracer.span("bignum.rate_parse", tag);
    r = BigRational::parse(rate);
  }
  std::optional<mbus::Workload> workload;
  {
    auto span = tracer.span("workload.build", tag);
    workload = make_workload(workload_kind, spec.processors, *r);
  }
  auto span = tracer.span("topology.build", tag);
  return BuiltPoint{mbus::make_topology(spec), std::move(*workload)};
}

std::int64_t probe_closed_form(Tracer& tracer, const mbus::Topology& topology,
                               const mbus::Workload& workload, int tag) {
  const std::int64_t start = now_ns();
  double x = 0.0;
  {
    auto span = tracer.span("workload.x", tag);
    x = workload.request_probability();
  }
  {
    auto span = tracer.span("analysis.closed_form", tag);
    (void)mbus::analytical_bandwidth(topology, x);
  }
  {
    auto span = tracer.span("topology.cost", tag);
    (void)mbus::cost_summary(topology);
  }
  return now_ns() - start;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// These two tables mirror "end_to_end" and "per_layer" in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};
constexpr MetricDef kPerLayer[] = {
    {"trace.overhead_frac", "ratio"},
    {"bignum.rate_parse_us", "us"},
    {"workload.build_us", "us"},
    {"workload.x_us", "us"},
    {"workload.exact_x_us", "us"},
    {"topology.build_us", "us"},
    {"topology.cost_us", "us"},
    {"analysis.closed_form_us.n16", "us"},
    {"analysis.closed_form_us.n128", "us"},
    {"analysis.closed_form_us.n1024", "us"},
    {"analysis.exact_us.paper", "us"},
    {"analysis.exact_us.n1024", "us"},
    {"core.evaluate_self_us", "us"},
    {"sim.fast.ns_per_cycle.n16", "ns"},
    {"sim.fast.ns_per_cycle.n64", "ns"},
    {"sim.resubmit.ns_per_cycle.n64", "ns"},
    {"sim.reference.ns_per_cycle.n128", "ns"},
    {"sim.fallback_runs", "count"},
    {"sim.grant_ratio", "ratio"},
    {"service.format_request_us", "us"},
    {"service.parse_request_us", "us"},
    {"service.execute_us.bandwidth", "us"},
    {"service.execute_us.simulate", "us"},
    {"service.format_reply_us", "us"},
    {"service.parse_reply_us", "us"},
    {"service.transport_us", "us"},
    {"service.server_us", "us"},
    {"util.pool.queue_wait_us", "us"},
    {"util.pool.task_run_us", "us"},
    {"util.pool.busy_frac", "ratio"},
    {"service.shed", "count"},
    {"service.deadline_exceeded", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.lag_max_ms", "ms"},
};

/// A per-layer metric that is the mean self time (or mean value) per call
/// of one span name; `tag` selects one system size, kAnyTag takes all.
struct SpanMetric {
  const char* metric;
  const char* span;
  int tag;
  double divisor;  // 1000 turns nanoseconds into microseconds
};
constexpr int kAnyTag = -1;
constexpr SpanMetric kSpanMetrics[] = {
    {"bignum.rate_parse_us", "bignum.rate_parse", kAnyTag, 1000},
    {"workload.build_us", "workload.build", kAnyTag, 1000},
    {"workload.x_us", "workload.x", kAnyTag, 1000},
    {"workload.exact_x_us", "workload.exact_x", kAnyTag, 1000},
    {"topology.build_us", "topology.build", kAnyTag, 1000},
    {"topology.cost_us", "topology.cost", kAnyTag, 1000},
    {"analysis.closed_form_us.n16", "analysis.closed_form", 16, 1000},
    {"analysis.closed_form_us.n128", "analysis.closed_form", 128, 1000},
    {"analysis.closed_form_us.n1024", "analysis.closed_form", 1024, 1000},
    {"analysis.exact_us.paper", "analysis.exact", 0, 1000},
    {"analysis.exact_us.n1024", "analysis.exact", 1024, 1000},
    {"core.evaluate_self_us", "core.evaluate_self", 0, 1000},
    {"sim.fast.ns_per_cycle.n16", "sim.fast.ns_per_cycle", 16, 1},
    {"sim.fast.ns_per_cycle.n64", "sim.fast.ns_per_cycle", 64, 1},
    {"sim.resubmit.ns_per_cycle.n64", "sim.resubmit.ns_per_cycle", 64, 1},
    {"sim.reference.ns_per_cycle.n128", "sim.reference.ns_per_cycle", 128, 1},
    {"service.format_request_us", "service.format_request", kAnyTag, 1000},
    {"service.parse_request_us", "service.parse_request", kAnyTag, 1000},
    {"service.execute_us.bandwidth", "service.execute", 0, 1000},
    {"service.execute_us.simulate", "service.execute", 1, 1000},
    {"service.format_reply_us", "service.format_reply", kAnyTag, 1000},
    {"service.parse_reply_us", "service.parse_reply", kAnyTag, 1000},
};

constexpr const char* kWorkloads[] = {"tables", "simulate", "serve_light",
                                      "serve_mixed"};
/// Share of a traced batch run measured without spans, for the overhead.
constexpr double kUntracedShare = 0.25;
/// Share of a traced run's window given to the named workload; the other
/// workloads split the rest.
constexpr double kTracedMainShare = 0.6;

// ---- batch workloads -------------------------------------------------

enum class Kind {
  kAnalytic,      // evaluate(): the closed forms in double precision
  kExact,         // evaluate(exact = true): also in exact rationals
  kSnappedExact,  // exact_bandwidth_full() at large N, X on a 2^-20 grid
  kSimulate,      // evaluate(simulate = true), fast engine requested
};

struct Point {
  int id = 0;  // position in the canonical (unshuffled) list
  Kind kind = Kind::kAnalytic;
  mbus::TopologySpec spec;
  std::string workload = "uniform";
  std::string rate = "1";
  std::optional<double> paper;  // the printed value, for paper-grid cells
  bool fixed = true;  // same inputs on every pass, so the same answer
  std::int64_t cycles = 0;
  bool resubmit = false;
  std::uint64_t sim_seed = 0;
};

mbus::TopologySpec square(const std::string& scheme, int n, int b) {
  mbus::TopologySpec spec;
  spec.scheme = scheme;
  spec.processors = spec.memories = n;
  spec.buses = b;
  spec.groups = 2;
  spec.classes = 0;  // K = B
  return spec;
}

/// Every legible printed cell of Tables II-VI as an evaluation point.
std::vector<Point> paper_grid(Kind kind) {
  std::vector<Point> points;
  for (const auto& cell : mbus::paperdata::all_cells()) {
    using mbus::paperdata::PaperTable;
    const char* scheme = "full";
    if (cell.table == PaperTable::kTable4) scheme = "single";
    if (cell.table == PaperTable::kTable5) scheme = "partial-g";
    if (cell.table == PaperTable::kTable6) scheme = "k-classes";
    Point p;
    p.kind = kind;
    p.spec = square(scheme, cell.n, cell.b);
    p.workload = cell.workload == mbus::paperdata::PaperWorkload::kHierarchical
                     ? "hier4"
                     : "uniform";
    p.rate = cell.r == 1.0 ? "1" : "0.5";
    p.paper = cell.value;
    points.push_back(p);
  }
  return points;
}

/// The canonical point list of one pass. Paper-grid points repeat on every
/// pass; the large-N points draw fresh rates (and seeds) from `rng`, so they
/// never repeat.
std::vector<Point> canonical_pass(const std::string& workload,
                                  mbus::Xoshiro256& rng) {
  std::vector<Point> points;
  const auto add_large = [&](Kind kind, const char* scheme, int n, int b,
                             const char* wl) {
    Point p;
    p.kind = kind;
    p.spec = square(scheme, n, b);
    p.workload = wl;
    p.rate = draw_rate(rng);
    p.fixed = false;
    points.push_back(p);
  };
  if (workload == "tables") {
    points = paper_grid(Kind::kAnalytic);
    for (const int n : {128, 1024}) {
      for (const char* scheme : kSchemes) {
        for (const char* wl : {"uniform", "hier4"}) {
          add_large(Kind::kAnalytic, scheme, n, n / 4, wl);
        }
      }
    }
    // Exact arithmetic on the full-connection uniform cells (Tables II and
    // III), and eq. 4 at N = 128 and 1024: binomial tail sums with
    // 300-digit coefficients that the double path must get right. A fifth
    // of the points, so that the median point is a double one and the tail
    // (90th percentile) an exact one. The large points' rates are fixed: exact
    // arithmetic costs what the digits of X cost, and a rate drawn per pass
    // would make their best time the luck of the draw.
    for (Point p : paper_grid(Kind::kExact)) {
      if (p.spec.scheme == "full" && p.workload == "uniform") points.push_back(p);
    }
    for (const int n : {128, 1024}) {
      for (const char* rate : {"0.5", "1"}) {
        Point p;
        p.kind = Kind::kSnappedExact;
        p.spec = square("full", n, n / 2);
        p.rate = rate;
        points.push_back(p);
      }
    }
  } else {  // simulate
    const auto add = [&](const char* scheme, int n, int b, const char* wl,
                         const char* rate, std::int64_t cycles, bool resubmit) {
      Point p;
      p.kind = Kind::kSimulate;
      p.spec = square(scheme, n, b);
      p.workload = wl;
      p.rate = rate;
      p.cycles = cycles;
      p.resubmit = resubmit;
      p.sim_seed = rng.next();
      p.fixed = false;
      points.push_back(p);
    };
    for (const int n : {16, 64}) {
      for (const char* scheme : kSchemes) {
        for (const char* wl : {"uniform", "hier4"}) {
          for (const int b : {n / 8, n / 4, n / 2}) {
            for (const char* rate : {"0.5", "1"}) {
              add(scheme, n, b, wl, rate, 4000, false);
            }
          }
        }
      }
    }
    for (const char* rate : {"0.5", "1"}) {
      // Resubmission: the same loop carrying blocked requests over.
      add("full", 64, 16, "hier4", rate, 4000, true);
      add("k-classes", 64, 16, "hier4", rate, 4000, true);
      // N = 128 exceeds the 64-bit masks: the fast engine silently falls
      // back to the reference loop. This point records that cliff.
      add("full", 128, 32, "hier4", rate, 2000, false);
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].id = static_cast<int>(i);
  }
  return points;
}

/// Tolerance of the paper-cell check: two printed decimals (half an ulp
/// plus slack for the authors' own arithmetic), or one where value * 10 is
/// integral (e.g. "6.0" for 5.991).
bool matches_paper(double computed, double printed) {
  const bool one_decimal =
      std::fabs(printed * 10.0 - std::round(printed * 10.0)) < 1e-9;
  return std::fabs(computed - printed) <= (one_decimal ? 0.055 : 0.0075);
}

bool close_relative(double a, double b, double tolerance) {
  return std::fabs(a - b) <= tolerance * std::max(std::fabs(a), std::fabs(b));
}

std::string describe(const Point& p) {
  return cat(p.spec.scheme, " N=", p.spec.processors, " B=", p.spec.buses,
             " ", p.workload, " r=", p.rate);
}

/// Run one point the way a library caller does; returns its answer (the
/// bandwidth) and records any check failure in `result`.
double run_point(const Point& p, Tracer& tracer, RunResult& result) {
  const int n = p.spec.processors;
  const BuiltPoint built = build_point(tracer, p.spec, p.workload, p.rate, n);
  if (p.kind == Kind::kSnappedExact) {
    // X snapped to a denominator of 2^20: the workload's own exact X has
    // a denominator of thousands of digits at this size.
    const double x_double = built.workload.request_probability();
    const BigRational x(
        mbus::BigInt(static_cast<std::int64_t>(x_double * 1048576.0)),
        mbus::BigInt(1048576));
    std::optional<BigRational> exact;
    {
      auto span = tracer.span("analysis.exact", n);
      exact = mbus::exact_bandwidth_full(n, p.spec.buses, x);
    }
    const double value = exact->to_double();
    const double approx = mbus::bandwidth_full(n, p.spec.buses, x.to_double());
    if (!close_relative(value, approx, 1e-9)) {
      result.fail_check(cat("exact and double disagree on ", describe(p), ": ",
                            value, " vs ", approx));
    }
    return value;
  }

  mbus::EvaluationOptions options;
  options.exact = p.kind == Kind::kExact;
  if (p.kind == Kind::kSimulate) {
    options.simulate = true;
    options.sim.cycles = p.cycles;
    options.sim.warmup = 1000;
    options.sim.seed = p.sim_seed;
    options.sim.resubmit_blocked = p.resubmit;
    options.sim.engine = mbus::EngineKind::kFast;
    options.parallel.threads = 1;
    options.parallel.replications = 1;
  }
  const std::int64_t start = now_ns();
  std::optional<mbus::Evaluation> e;
  {
    auto span = tracer.span("core.evaluate", n);
    e = mbus::evaluate(*built.topology, built.workload, options);
  }
  const std::int64_t evaluate_ns = now_ns() - start;

  if (p.paper && !matches_paper(e->analytic_bandwidth, *p.paper)) {
    result.fail_check(cat("paper cell ", describe(p), " prints ", *p.paper,
                          ", computed ", e->analytic_bandwidth));
  }
  if (p.kind == Kind::kExact &&
      !close_relative(e->exact_bandwidth->to_double(), e->analytic_bandwidth,
                      1e-9)) {
    result.fail_check(cat("exact and double disagree on ", describe(p), ": ",
                          e->exact_bandwidth->to_double(), " vs ",
                          e->analytic_bandwidth));
  }

  if (tracer.enabled()) {
    if (p.kind == Kind::kSimulate) {
      const char* name = p.resubmit ? "sim.resubmit.ns_per_cycle"
                         : n > 64   ? "sim.reference.ns_per_cycle"
                                    : "sim.fast.ns_per_cycle";
      tracer.add_value(name, n,
                       static_cast<double>(evaluate_ns) /
                           static_cast<double>(p.cycles + options.sim.warmup));
    } else {
      // evaluate()'s own share: its time minus the public calls it makes,
      // each timed again on its own.
      std::int64_t parts_ns =
          probe_closed_form(tracer, *built.topology, built.workload, n);
      if (p.kind == Kind::kExact) {
        const std::int64_t exact_start = now_ns();
        std::optional<BigRational> x;
        {
          auto span = tracer.span("workload.exact_x", n);
          x = built.workload.exact_request_probability();
        }
        {
          auto span = tracer.span("analysis.exact", 0);
          (void)mbus::exact_analytical_bandwidth(*built.topology, *x);
        }
        parts_ns += now_ns() - exact_start;
      }
      // Only the double path: next to exact arithmetic, evaluate()'s own
      // share is below the timer noise of the parts.
      if (p.kind == Kind::kAnalytic) {
        tracer.add_value("core.evaluate_self", 0,
                         static_cast<double>(evaluate_ns - parts_ns));
      }
    }
  }
  return p.kind == Kind::kSimulate ? e->simulation->bandwidth
                                   : e->analytic_bandwidth;
}

/// Whole passes over the workload's points, each pass in a fresh seeded
/// order, until `seconds` have passed (at least one pass). A point's time
/// is its best over the passes: the shared machine's interference only
/// ever adds time, in bursts of a fraction of a second to minutes, so the
/// best of many tries estimates the code's own cost far more steadily than
/// the median does.
struct BatchWindow {
  std::vector<double> best_ms;  // per canonical point id
  std::int64_t passes = 0;
  std::int64_t ops = 0;

  /// A pass in which every point took its best time.
  double pass_ms() const {
    return std::accumulate(best_ms.begin(), best_ms.end(), 0.0);
  }
};

BatchWindow run_passes(const std::string& workload, mbus::Xoshiro256& rng,
                       double seconds, Tracer& tracer,
                       std::vector<double>* first_pass, RunResult& result) {
  BatchWindow window;
  std::vector<double> expected;  // answers of the fixed points, by id
  const double deadline = now_s() + seconds;
  do {
    std::vector<Point> points = canonical_pass(workload, rng);
    std::vector<double> answers(points.size(), 0.0);
    expected.resize(points.size(), std::nan(""));
    window.best_ms.resize(points.size(),
                          std::numeric_limits<double>::infinity());
    std::shuffle(points.begin(), points.end(), rng);
    for (const Point& p : points) {
      const auto id = static_cast<std::size_t>(p.id);
      const std::int64_t start = now_ns();
      answers[id] = run_point(p, tracer, result);
      window.best_ms[id] = std::min(
          window.best_ms[id], static_cast<double>(now_ns() - start) / 1e6);
    }
    ++window.passes;
    window.ops += static_cast<std::int64_t>(points.size());
    for (const Point& p : points) {
      const auto id = static_cast<std::size_t>(p.id);
      if (!p.fixed) continue;
      if (std::isnan(expected[id])) {
        expected[id] = answers[id];
      } else if (expected[id] != answers[id]) {
        result.fail_check(cat("answer changed between passes: ", describe(p)));
      }
    }
    if (first_pass != nullptr && first_pass->empty()) *first_pass = answers;
  } while (now_s() < deadline);
  return window;
}

/// Untimed: both engines agree bit for bit on every point the fast kernel
/// supports (N <= 64), on a short run with each point's own seed.
void check_engines(mbus::Xoshiro256 rng, RunResult& result) {
  int compared = 0;
  for (const Point& p : canonical_pass("simulate", rng)) {
    if (p.spec.processors > 64) continue;
    const auto topology = mbus::make_topology(p.spec);
    const mbus::Workload workload =
        make_workload(p.workload, p.spec.processors, BigRational::parse(p.rate));
    mbus::SimConfig config;
    config.cycles = 2000;
    config.seed = p.sim_seed;
    config.resubmit_blocked = p.resubmit;
    config.engine = mbus::EngineKind::kReference;
    const double reference =
        mbus::simulate(*topology, workload.model(), config).bandwidth;
    config.engine = mbus::EngineKind::kFast;
    const double fast = mbus::simulate(*topology, workload.model(), config).bandwidth;
    if (reference != fast) {
      result.fail_check(cat("fast and reference engines differ on ",
                            describe(p), ": ", fast, " vs ", reference));
    }
    ++compared;
  }
  result.notes.push_back(cat("fast vs reference engine, 2000 cycles: ", compared,
                             " points compared bit for bit"));
}

/// The first canonical point of the workload, with seed-independent inputs:
/// what a user waits for from a cold process.
double first_answer(const std::string& workload) {
  mbus::Xoshiro256 rng(1);
  const Point p = canonical_pass(workload, rng).front();
  Tracer off(false, 0);
  RunResult result;
  const double value = run_point(p, off, result);
  MBUS_EXPECTS(result.correct, result.notes.front());
  return value;
}

/// Cold start: a fresh process computing the first answer, timed from
/// spawn to exit; appends kSetupRepeats samples to `times`.
void measure_cold_starts(const RunOptions& options, RunResult& result,
                         std::vector<double>& times) {
  for (int r = 0; r < kSetupRepeats; ++r) {
    std::vector<std::string> args = {options.self_path, "--first-answer",
                                     "--workload", options.workload};
    const double start = now_s();
    mbus::Subprocess child =
        mbus::Subprocess::spawn([&args](int, int result_fd) {
          if (::dup2(result_fd, STDOUT_FILENO) < 0) return 127;
          std::vector<char*> argv;
          for (std::string& arg : args) argv.push_back(arg.data());
          argv.push_back(nullptr);
          ::execv(argv[0], argv.data());
          return 127;
        });
    const mbus::ExitStatus status = child.wait();
    times.push_back(now_s() - start);
    if (!status.exited || status.code != 0) {
      result.fail_check(cat("cold-start process failed: ", status.describe()));
    }
  }
}

std::map<std::string, std::int64_t> registry_counters() {
  return mbus::obs::MetricsRegistry::global().snapshot().counters;
}

RunResult run_batch(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  mbus::Xoshiro256 rng(options.seed);
  Tracer untraced(false, 0);

  if (!options.trace) {
    std::vector<double> setup;
    measure_cold_starts(options, result, setup);
    std::vector<double> first_pass;
    const BatchWindow window = run_passes(options.workload, rng, options.seconds,
                                          untraced, &first_pass, result);
    measure_cold_starts(options, result, setup);
    result.metrics["setup_s"] = median(setup);
    result.attempted = window.ops;
    result.metrics["throughput_per_s"] =
        static_cast<double>(window.best_ms.size()) / (window.pass_ms() / 1e3);
    result.metrics["latency_p50_ms"] = nearest_rank(window.best_ms, 0.50);
    // The tail is the 90th percentile: a few hundred points hold too few
    // beyond the 99th.
    result.metrics["latency_tail_ms"] = nearest_rank(window.best_ms, 0.90);
    result.metrics["peak_rss_mb"] = peak_rss_mb(0);
    Digest digest;
    for (const double answer : first_pass) digest.add(answer);
    result.notes.push_back(cat(window.passes, " passes of ",
                               window.best_ms.size(), " points, ", window.ops,
                               " operations; result.digest ", digest.value()));
  } else {
    std::vector<double> first_pass;
    const BatchWindow base =
        run_passes(options.workload, rng, options.seconds * kUntracedShare,
                   untraced, &first_pass, result);
    const auto before = registry_counters();
    const BatchWindow traced =
        run_passes(options.workload, rng, options.seconds * (1 - kUntracedShare),
                   tracer, nullptr, result);
    auto after = registry_counters();
    const auto delta = [&](const std::string& name) {
      return static_cast<double>(after[name] - (before.count(name) ? before.at(name) : 0));
    };
    result.attempted = base.ops + traced.ops;
    auto& m = result.metrics;
    m["trace.overhead_frac"] = traced.pass_ms() / base.pass_ms() - 1.0;
    Digest digest;
    for (const double answer : first_pass) digest.add(answer);
    result.notes.push_back(cat("result.digest ", digest.value()));
    const double issued = delta("sim.requests.issued");
    if (issued > 0) {
      m["sim.fallback_runs"] = delta("sim.runs.reference");
      m["sim.grant_ratio"] = delta("sim.requests.granted") / issued;
    }
  }
  if (options.workload == "simulate") check_engines(mbus::Xoshiro256(options.seed), result);
  return result;
}

// ---- output ------------------------------------------------------------

/// The span-derived per-layer metrics of the layers the run called; a
/// layer it never called gets no entry.
void metrics_from_spans(const Tracer& tracer, std::map<std::string, double>& m) {
  for (const SpanMetric& s : kSpanMetrics) {
    std::int64_t calls = 0;
    double sum = 0.0;
    for (const auto& [key, totals] : tracer.totals()) {
      if (key.first != s.span || (s.tag != kAnyTag && key.second != s.tag)) {
        continue;
      }
      calls += totals.calls;
      sum += totals.self_sum;
    }
    if (calls > 0) m[s.metric] = sum / static_cast<double>(calls) / s.divisor;
  }
}

/// A value as JSON; a value that was not measured (NaN, say the median of
/// an empty sample) or has no finite reading is null.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The trace file: every per-layer metric with the workload it was
/// measured on, the named workload's per-(span, tag) totals and kept
/// spans, and for a serving workload the daemon's metrics snapshot.
void write_trace(const RunOptions& options, const Tracer& tracer,
                 const RunResult& result,
                 const std::map<std::string, std::string>& sources) {
  const std::string path =
      cat(options.workdir, "/trace-", options.workload, ".json");
  std::ofstream out(path);
  MBUS_EXPECTS(out.is_open(), cat("cannot write ", path));
  out << "{\"workload\": \"" << options.workload << "\", \"seed\": "
      << options.seed << ",\n \"per_layer\": {";
  bool first = true;
  for (const MetricDef& def : kPerLayer) {
    out << (first ? "" : ",\n  ") << "\"" << def.name
        << "\": {\"value\": " << json_number(result.metrics.at(def.name))
        << ", \"measured_on\": \"" << sources.at(def.name) << "\"}";
    first = false;
  }
  out << "},\n \"totals\": {";
  first = true;
  for (const auto& [key, totals] : tracer.totals()) {
    out << (first ? "" : ",\n  ") << "\"" << key.first << "#" << key.second
        << "\": {\"calls\": " << totals.calls
        << ", \"self_sum\": " << json_number(totals.self_sum) << "}";
    first = false;
  }
  out << "},\n \"spans_dropped\": " << tracer.dropped() << ",\n \"spans\": [";
  first = true;
  for (const Tracer::Span& s : tracer.spans()) {
    out << (first ? "" : ",\n  ") << "{\"name\": \"" << s.name
        << "\", \"tag\": " << s.tag << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}";
    first = false;
  }
  out << "]";
  std::ifstream daemon(daemon_metrics_path(options));
  if (daemon.is_open() && is_serving(options.workload)) {
    std::stringstream text;
    text << daemon.rdbuf();
    out << ",\n \"mbusd_metrics\": " << text.str();
  }
  out << "}\n";
}

RunResult run_workload(const RunOptions& options, Tracer& tracer) {
  RunResult result = is_serving(options.workload)
                         ? run_serving(options, tracer)
                         : run_batch(options, tracer);
  if (options.trace) metrics_from_spans(tracer, result.metrics);
  return result;
}

/// A traced run (see the top of this file): the named workload, then a
/// short slice of each other one. Per-layer metrics the named workload
/// did not measure are taken from the first slice that did.
RunResult run_traced(const RunOptions& options) {
  RunOptions named = options;
  named.seconds = options.seconds * kTracedMainShare;
  Tracer tracer(true, 20'000);
  RunResult result = run_workload(named, tracer);
  std::map<std::string, std::string> sources;
  for (const MetricDef& def : kPerLayer) {
    if (result.metrics.count(def.name) != 0) sources[def.name] = options.workload;
  }
  for (const char* other : kWorkloads) {
    if (options.workload == other) continue;
    RunOptions slice = options;
    slice.workload = other;
    slice.seconds = options.seconds * (1.0 - kTracedMainShare) /
                    static_cast<double>(std::size(kWorkloads) - 1);
    Tracer totals_only(true, 0);
    const RunResult part = run_workload(slice, totals_only);
    for (const std::string& note : part.notes) {
      result.notes.push_back(cat(other, " slice: ", note));
    }
    result.correct = result.correct && part.correct;
    result.check_failures += part.check_failures;
    result.attempted += part.attempted;
    result.failed += part.failed;
    for (const MetricDef& def : kPerLayer) {
      const auto it = part.metrics.find(def.name);
      if (it != part.metrics.end() &&
          result.metrics.emplace(def.name, it->second).second) {
        sources[def.name] = other;
      }
    }
  }
  for (const MetricDef& def : kPerLayer) {
    MBUS_EXPECTS(sources.count(def.name) != 0,
                 cat("no workload measured ", def.name));
  }
  write_trace(options, tracer, result, sources);
  return result;
}

int run(int argc, char** argv) {
  mbus::CliParser cli(
      "mbus_bench: the layered end-to-end benchmark. Runs one workload "
      "(tables, simulate, serve_light, serve_mixed), checks its "
      "answers, and prints its metrics as a JSON object on the last line.");
  cli.add_string("workload", "tables", "workload to run")
      .add_int("seed", 1, "seed of the workload's inputs")
      .add_double("seconds", 20, "measurement window")
      .add_int("trace", 0, "1 = traced run: per-layer metrics and a trace file")
      .add_string("workdir", ".bench_build/run",
                  "directory for the daemon socket and trace files")
      .add_flag("first-answer",
                "compute the workload's first answer and exit (cold-start "
                "probe spawned by the benchmark itself)");
  if (!cli.parse(argc, argv)) return 0;

  RunOptions options;
  options.workload = cli.get_string("workload");
  MBUS_EXPECTS(std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                            [&](const char* w) { return options.workload == w; }) !=
                   std::end(kWorkloads),
               cat("unknown workload '", options.workload, "'"));
  if (cli.get_flag("first-answer")) {
    MBUS_EXPECTS(!is_serving(options.workload),
                 "--first-answer is for the batch workloads");
    std::cout << "first-answer " << json_number(first_answer(options.workload))
              << "\n";
    return 0;
  }
  options.seed = static_cast<std::uint64_t>(cli.get_nonnegative_int("seed"));
  options.seconds = cli.get_positive_double("seconds");
  const std::int64_t trace = cli.get_nonnegative_int("trace");
  MBUS_EXPECTS(trace <= 1, "--trace must be 0 or 1");
  options.trace = trace == 1;
  options.workdir = cli.get_string("workdir");
  std::filesystem::create_directories(options.workdir);
  options.mbusd_path = MBUS_BENCH_MBUSD;
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof self - 1);
  MBUS_EXPECTS(len > 0, "cannot resolve /proc/self/exe");
  options.self_path.assign(self, static_cast<std::size_t>(len));

  std::cout << "mbus_bench config: nproc=" << std::thread::hardware_concurrency()
            << " compiler=" << MBUS_BENCH_COMPILER
            << " build_type=" << MBUS_BENCH_BUILD_TYPE
            << " workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << trace << "\n";

  Tracer untraced(false, 0);
  RunResult result = options.trace ? run_traced(options)
                                   : run_workload(options, untraced);
  const std::vector<MetricDef> defs =
      options.trace
          ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
          : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const MetricDef& def : defs) {
    MBUS_EXPECTS(result.metrics.count(def.name) != 0,
                 cat("the run did not measure ", def.name));
    // Too short a window leaves a sample empty (NaN) or a count at 0; a
    // failed request that reaches a percentile makes it infinite. None of
    // these is a measurement. (Per-layer counts may be 0.)
    const double value = result.metrics.at(def.name);
    if (!std::isfinite(value) || (!options.trace && value <= 0.0)) {
      result.fail_check(cat(def.name, " = ", value,
                            " is not a measurement: too short a window, or "
                            "failed operations reached it"));
    }
  }

  for (const std::string& note : result.notes) std::cout << "  " << note << "\n";
  std::cout << "  attempted=" << result.attempted << " failed=" << result.failed
            << " check_failures=" << result.check_failures
            << " correct=" << (result.correct ? "yes" : "NO") << "\n";
  for (const MetricDef& def : defs) {
    std::printf("  %-34s %14.6g %s\n", def.name, result.metrics.at(def.name),
                def.unit);
  }
  std::fflush(stdout);

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    std::cout << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
              << json_number(result.metrics.at(def.name)) << ", \"unit\": \""
              << def.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace mbus_bench

int main(int argc, char** argv) {
  return mbus::run_cli_main(argc, argv, mbus_bench::run);
}
