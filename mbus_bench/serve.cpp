// Serving workloads: the real mbusd daemon, started as a child process
// with 2 workers and a 1024-request admission queue, under load from one
// generator thread that multiplexes 2 connections with ppoll(2). With the
// daemon's event loop that is 4 busy threads, one per core of the
// machine the baseline was taken on. The generator is pinned to one core
// and the daemon to the others, so that the generator never waits for a
// core the daemon holds.
//
// Each run alternates two phases on one daemon, kRounds times each:
//   * an open loop: Poisson arrivals at a fixed rate, every request timed
//     from its scheduled send time (open_loop.hpp); gives the latency
//     percentiles;
//   * a closed loop: 16 requests outstanding per connection, the next sent
//     as soon as a reply arrives; gives the saturation throughput (ok
//     replies per second over all of its phases).
// Alternating spreads both phases over the whole run, so that a burst of
// interference from the shared machine spoils a share of each phase
// instead of all of one phase.
// The first and every 64th request of each operation that got an ok reply
// is compared field by field with an in-process execute_request() of the
// same request after the load has stopped, and the daemon must drain to
// exit 0 on SIGTERM.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "latency_stats.hpp"
#include "mbus_bench.hpp"
#include "obs/metrics.hpp"
#include "open_loop.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace mbus_bench {
namespace {

using mbus::cat;
using mbus::service::Op;
using mbus::service::ServiceReply;
using mbus::service::ServiceRequest;

constexpr int kConnections = 2;
constexpr int kWorkers = 2;
/// mbusd's default is 32. The admission limit changes no request's path
/// until the queue is full, and with 32 slots this traffic fills it now
/// and then: in three 20 s runs at 32, serve_light shed up to 0.17 % of its
/// open-loop requests and serve_mixed up to 3 (README.md, "Load shape").
/// A shed request is a failed operation, and the benchmark's runs must not
/// fail any, so the queue holds a fifth of a second of serve_light's
/// arrivals.
constexpr int kQueueCapacity = 1024;
constexpr int kOutstandingPerConnection = 16;
constexpr std::int64_t kCheckEvery = 64;
/// Share of --seconds spent in the open loop; the rest is the closed loop.
constexpr double kOpenLoopShare = 0.5;
constexpr int kRounds = 5;
/// The open loop reports over windows of scheduled send time
/// (latency_stats.hpp) at least this long, and long enough to expect this
/// many samples: twenty beyond the 99th percentile.
constexpr double kMinWindowSeconds = 0.5;
constexpr double kWindowSamples = 2000;
/// The tail percentile reported (latency_tail_ms).
constexpr double kTailQuantile = 0.99;
constexpr std::int64_t kDrainNs = 10'000'000'000;
constexpr std::uint64_t kClosedLoopIndexBase = 1'000'000'000;

/// Open-loop rates, frozen so that every commit is measured at the same
/// offered load: about half the lowest closed-loop capacity measured on
/// the baseline machine, so that the daemon stays below saturation when
/// the shared machine slows (README.md, "Workloads").
constexpr double kLightRate = 4500.0;
constexpr double kMixedRate = 1000.0;
/// serve_mixed: this share of requests are simulations of this many
/// cycles (after kMixedSimulateWarmup), about 20 ms on a worker of the
/// loaded daemon: two fifths of the two workers' time, so that heavy
/// requests often hold both workers and block the cheap requests queued
/// behind them.
constexpr double kMixedSimulateShare = 0.04;
constexpr std::int64_t kMixedSimulateCycles = 7500;
constexpr std::int64_t kMixedSimulateWarmup = 1000;
/// The traffic's shape (when requests arrive, and which of them are
/// simulations) comes from this constant; their contents come from --seed.
/// Poisson bursts and clusters of heavy requests then repeat from run to
/// run, so the spread between runs is the machine's and the code's rather
/// than the luck of one seed's arrivals.
constexpr std::uint64_t kShapeSeed = 0x5EED5;

/// Request `index` of the seed's stream. A pure function of (seed, index),
/// so the check can rebuild any request from its index alone.
ServiceRequest make_request(std::uint64_t seed, std::uint64_t index,
                            double simulate_share) {
  mbus::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + index);
  ServiceRequest request;
  request.id = index + 1;
  request.topo.scheme = kSchemes[rng.below(4)];
  request.topo.groups = 2;
  if (mbus::Xoshiro256(kShapeSeed + index).uniform01() < simulate_share) {
    request.op = Op::kSimulate;
    request.topo.processors = request.topo.memories = 64;
    request.topo.buses = 16;
    request.workload = "hier4";
    request.rate = "1";
    request.cycles = kMixedSimulateCycles;
    request.warmup = kMixedSimulateWarmup;
    request.seed = rng.next();
    request.engine = mbus::EngineKind::kFast;
    return request;
  }
  request.op = Op::kBandwidth;
  static const int kSizes[] = {16, 64, 256};
  const int n = kSizes[rng.below(3)];
  request.topo.processors = request.topo.memories = n;
  request.topo.buses = n / (2 << rng.below(3));  // N/2, N/4 or N/8
  request.workload = rng.below(2) == 0 ? "uniform" : "hier4";
  request.rate = draw_rate(rng);
  return request;
}

/// The request every cold start answers: small and seed-independent, so
/// setup_s measures the daemon's start, not the request.
ServiceRequest first_request() {
  ServiceRequest request;
  request.id = 1;
  request.op = Op::kBandwidth;
  request.topo.scheme = "full";
  request.topo.processors = request.topo.memories = 16;
  request.topo.buses = 4;
  return request;
}

/// The first CPU this process may use, for the generator, and the rest,
/// for the daemon. Fewer than two CPUs: no pinning.
struct CoreSplit {
  bool pinned = false;
  cpu_set_t allowed;
  cpu_set_t generator;
  cpu_set_t daemon;
};

CoreSplit split_cores() {
  CoreSplit split;
  CPU_ZERO(&split.allowed);
  CPU_ZERO(&split.generator);
  CPU_ZERO(&split.daemon);
  if (::sched_getaffinity(0, sizeof split.allowed, &split.allowed) != 0 ||
      CPU_COUNT(&split.allowed) < 2) {
    return split;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &split.allowed)) continue;
    CPU_SET(cpu, split.pinned ? &split.daemon : &split.generator);
    split.pinned = true;
  }
  return split;
}

/// Pins this single-threaded process to the generator's core and restores
/// its previous affinity on exit, so that a workload run after this one
/// in the same process (a traced run's slices) gets every core back.
class GeneratorPin {
 public:
  explicit GeneratorPin(const CoreSplit& cores) : cores_(cores) {
    MBUS_EXPECTS(!cores_.pinned ||
                     ::sched_setaffinity(0, sizeof cores_.generator,
                                         &cores_.generator) == 0,
                 "cannot pin the load generator to its core");
  }
  ~GeneratorPin() {
    if (cores_.pinned) {
      ::sched_setaffinity(0, sizeof cores_.allowed, &cores_.allowed);
    }
  }
  GeneratorPin(const GeneratorPin&) = delete;
  GeneratorPin& operator=(const GeneratorPin&) = delete;

 private:
  const CoreSplit& cores_;
};

/// One mbusd child process with the benchmark's load shape.
class Daemon {
 public:
  Daemon(const std::string& mbusd, const std::string& socket_path,
         const std::string& metrics_out, const CoreSplit& cores) {
    std::vector<std::string> args = {
        mbusd,     "--socket",  socket_path,
        "--workers", cat(kWorkers), "--queue-capacity", cat(kQueueCapacity)};
    if (!metrics_out.empty()) {
      args.push_back("--metrics-out");
      args.push_back(metrics_out);
    }
    child_ = mbus::Subprocess::spawn([&args, &cores](int, int result_fd) {
      if (::dup2(result_fd, STDOUT_FILENO) < 0) return 127;
      if (cores.pinned &&
          ::sched_setaffinity(0, sizeof cores.daemon, &cores.daemon) != 0) {
        return 127;
      }
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      return 127;
    });
    wait_until_listening();
  }

  int pid() const noexcept { return child_.pid(); }

  /// SIGTERM, then wait for the drain; true when mbusd exited 0.
  bool stop() {
    const mbus::ExitStatus status = child_.terminate(10'000);
    return status.exited && status.code == 0;
  }

 private:
  /// mbusd prints "serving on <socket>" once its listener is bound.
  void wait_until_listening() {
    std::string out;
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (out.find("serving on") == std::string::npos) {
      const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
      MBUS_EXPECTS(left_ms > 0, "mbusd did not start listening within 10 s");
      pollfd pfd{child_.result_fd(), POLLIN, 0};
      mbus::poll_eintr(&pfd, 1, static_cast<int>(left_ms));
      char buffer[512];
      const ssize_t n = ::read(child_.result_fd(), buffer, sizeof buffer);
      if (n > 0) {
        out.append(buffer, static_cast<std::size_t>(n));
      } else if (n == 0) {
        throw mbus::Error(cat("mbusd exited before listening (",
                              child_.wait().describe(), "): ", out));
      }
    }
  }

  mbus::Subprocess child_;
};

/// Two blocking unix-socket connections read without blocking (recv with
/// MSG_DONTWAIT) from one thread.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    try {
      for (int c = 0; c < kConnections; ++c) {
        fds_.push_back(mbus::connect_unix(socket_path));
      }
    } catch (...) {
      for (const int fd : fds_) mbus::close_fd(fd);
      throw;
    }
    readers_.resize(fds_.size());
  }
  ~Client() {
    for (const int fd : fds_) mbus::close_fd(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send(int conn, const std::string& payload) {
    return mbus::write_frame(fds_[static_cast<std::size_t>(conn)], payload);
  }

  /// Wait up to `timeout_ns` for readable connections and hand every
  /// complete reply to `on_reply(conn, payload)`. A connection that reached
  /// EOF stays closed; its unanswered requests are counted lost by the
  /// caller.
  template <class OnReply>
  void poll_replies(std::int64_t timeout_ns, OnReply&& on_reply) {
    pollfd pfds[kConnections];
    int conn_of[kConnections];
    nfds_t count = 0;
    for (int c = 0; c < kConnections; ++c) {
      if (closed_[c]) continue;
      pfds[count] = pollfd{fds_[static_cast<std::size_t>(c)], POLLIN, 0};
      conn_of[count++] = c;
    }
    if (count == 0) return;
    timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(pfds, count, &ts, nullptr) <= 0) return;  // timeout or EINTR
    for (nfds_t p = 0; p < count; ++p) {
      if (pfds[p].revents == 0) continue;
      const int c = conn_of[p];
      mbus::FrameReader& reader = readers_[static_cast<std::size_t>(c)];
      char buffer[65536];
      for (;;) {
        const ssize_t n = ::recv(pfds[p].fd, buffer, sizeof buffer, MSG_DONTWAIT);
        if (n > 0) {
          reader.feed(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          closed_[c] = true;
        }
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      std::string payload;
      while (reader.next_frame(payload)) on_reply(c, payload);
    }
  }

  bool any_open() const noexcept {
    return std::find(std::begin(closed_), std::end(closed_), false) !=
           std::end(closed_);
  }

 private:
  std::vector<int> fds_;
  std::vector<mbus::FrameReader> readers_;
  bool closed_[kConnections] = {};
};

/// An ok reply kept for the bit-identity check.
struct Checked {
  std::uint64_t index;
  std::string payload;
  std::int64_t round_trip_ns;  // actual send to receipt
  bool open_loop;
};

struct Tally {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t not_ok = 0;
  std::int64_t lost = 0;
  std::map<std::string, std::int64_t> error_codes;
};

/// The load generator: one thread, two connections.
class LoadGen {
 public:
  LoadGen(const std::string& socket_path, std::uint64_t seed,
          double simulate_share)
      : client_(socket_path), seed_(seed), simulate_share_(simulate_share) {}

  Tally open;
  Tally closed;
  std::vector<Checked> checked;

  /// One open-loop phase: Poisson arrivals at `rate` for `seconds`, on the
  /// next of the run's fixed arrival schedules. Latency from each request's
  /// scheduled send time into `latency` (ms), on a timeline that continues
  /// from the previous phase; generator lag (ms) into `lag`.
  void open_loop(double rate, double seconds, Tracer* tracer,
                 WindowedLatency& latency, std::vector<double>& lag) {
    const std::vector<std::int64_t> due =
        poisson_schedule(rate, seconds, kShapeSeed + open_phases_++);
    const std::size_t n = due.size();
    const std::uint64_t base = next_open_index_;  // request index of due[0]
    const std::int64_t offset = open_elapsed_ns_;  // timeline of `latency`
    next_open_index_ += n;
    open_elapsed_ns_ += static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::int64_t> sent_at(n, -1);  // -1: not sent or failed
    std::vector<char> answered(n, 0);
    std::int64_t outstanding = 0;
    std::size_t next = 0;
    const std::int64_t start = now_ns();
    std::int64_t drain_until = -1;

    const auto on_reply = [&](int, const std::string& payload) {
      const std::int64_t now = now_ns() - start;
      const ServiceReply reply = parse(tracer, payload);
      const std::uint64_t i = reply.id - 1 - base;
      MBUS_EXPECTS(reply.id > base && i < n && sent_at[i] >= 0 &&
                       answered[i] == 0,
                   cat("reply for unknown request id ", reply.id));
      answered[i] = 1;
      --outstanding;
      record(open, reply, payload, base + i, now - sent_at[i], true);
      if (reply.ok) {
        latency.add(offset + due[i], static_cast<double>(now - due[i]) / 1e6);
      } else {
        latency.add_failure(offset + due[i]);
      }
    };

    for (;;) {
      std::int64_t now = now_ns() - start;
      while (next < n && due[next] <= now) {
        lag.push_back(static_cast<double>(now - due[next]) / 1e6);
        if (send_request(base + next, static_cast<int>(next % kConnections),
                         tracer)) {
          sent_at[next] = now;
          ++outstanding;
        } else {
          ++open.lost;
          latency.add_failure(offset + due[next]);
        }
        ++open.sent;
        ++next;
        now = now_ns() - start;
      }
      if (next == n) {
        if (outstanding == 0 || !client_.any_open()) break;
        if (drain_until < 0) drain_until = now + kDrainNs;
        if (now >= drain_until) break;
      }
      client_.poll_replies(next < n ? due[next] - now : drain_until - now,
                           on_reply);
    }
    open.lost += outstanding;
    for (std::size_t i = 0; i < n; ++i) {
      if (sent_at[i] >= 0 && answered[i] == 0) latency.add_failure(offset + due[i]);
    }
  }

  /// One closed-loop phase: kOutstandingPerConnection requests in flight
  /// per connection for `seconds`; returns the ok replies received within
  /// it.
  std::int64_t closed_loop(double seconds, Tracer* tracer) {
    std::unordered_map<std::uint64_t, std::int64_t> pending;  // id -> sent
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t ok_in_phase = 0;

    const auto send_next = [&](int conn) {
      const std::uint64_t index = next_closed_index_++;
      ++closed.sent;
      if (send_request(index, conn, tracer)) {
        pending.emplace(index + 1, now_ns());
      } else {
        ++closed.lost;
      }
    };
    for (int c = 0; c < kConnections; ++c) {
      for (int k = 0; k < kOutstandingPerConnection; ++k) send_next(c);
    }
    const auto on_reply = [&](int conn, const std::string& payload) {
      const std::int64_t now = now_ns();
      const ServiceReply reply = parse(tracer, payload);
      const auto it = pending.find(reply.id);
      MBUS_EXPECTS(it != pending.end(),
                   cat("reply for unknown request id ", reply.id));
      const std::int64_t sent = it->second;
      pending.erase(it);
      if (reply.ok && now < end) ++ok_in_phase;
      record(closed, reply, payload, reply.id - 1, now - sent, false);
      if (now < end) send_next(conn);
    };
    for (;;) {
      const std::int64_t now = now_ns();
      if (now >= end && (pending.empty() || !client_.any_open())) break;
      if (now >= end + kDrainNs) break;
      client_.poll_replies(now < end ? end - now : end + kDrainNs - now,
                           on_reply);
    }
    closed.lost += static_cast<std::int64_t>(pending.size());
    return ok_in_phase;
  }

 private:
  bool send_request(std::uint64_t index, int conn, Tracer* tracer) {
    const ServiceRequest request = make_request(seed_, index, simulate_share_);
    const bool open_loop = index < kClosedLoopIndexBase;
    if (sent_by_op_[{open_loop, request.op}]++ % kCheckEvery == 0) {
      to_check_.insert(index);
    }
    std::string payload;
    {
      Tracer::Scope span(tracer, "service.format_request", 0, request.id);
      payload = mbus::service::format_request(request);
    }
    return client_.send(conn, payload);
  }

  static ServiceReply parse(Tracer* tracer, const std::string& payload) {
    Tracer::Scope span(tracer, "service.parse_reply", 0, 0);
    return mbus::service::parse_reply(payload);
  }

  void record(Tally& tally, const ServiceReply& reply,
              const std::string& payload, std::uint64_t index,
              std::int64_t round_trip_ns, bool open_loop) {
    if (!reply.ok) {
      ++tally.not_ok;
      ++tally.error_codes[reply.code];
      return;
    }
    ++tally.ok;
    if (to_check_.count(index) != 0) {
      checked.push_back(Checked{index, payload, round_trip_ns, open_loop});
    }
  }

  Client client_;
  std::uint64_t seed_;
  double simulate_share_;
  std::uint64_t next_open_index_ = 0;
  std::uint64_t next_closed_index_ = kClosedLoopIndexBase;
  int open_phases_ = 0;
  std::int64_t open_elapsed_ns_ = 0;
  /// Requests whose replies are kept for the check: the first and every
  /// kCheckEvery-th request of each operation in each loop, in send order.
  /// Both loops send in index order and are counted apart, so the open
  /// loop's kept set is the same on every run of a seed (see
  /// result.digest), and the rare simulate requests are checked too.
  std::map<std::pair<bool, Op>, std::int64_t> sent_by_op_;
  std::unordered_set<std::uint64_t> to_check_;
};

/// Daemon start to the first correct answer; appends kSetupRepeats
/// samples to `times`.
void measure_setup(const RunOptions& options, const std::string& socket,
                   const CoreSplit& cores, RunResult& result,
                   std::vector<double>& times) {
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double start = now_s();
    Daemon daemon(options.mbusd_path, socket, "", cores);
    const int fd = mbus::connect_unix(socket);
    const ServiceRequest request = first_request();
    std::string payload;
    mbus::FrameReader reader;
    const bool answered =
        mbus::write_frame(fd, mbus::service::format_request(request)) &&
        mbus::read_frame_blocking(fd, reader, payload);
    times.push_back(now_s() - start);
    mbus::close_fd(fd);
    if (!answered) {
      result.fail_check("cold-start request got no reply");
    } else if (mbus::service::parse_reply(payload).fields !=
               mbus::service::execute_request(request, nullptr).fields) {
      result.fail_check("cold-start reply differs from in-process evaluation");
    }
    if (!daemon.stop()) {
      result.fail_check("mbusd did not drain to exit 0 after the cold start");
    }
  }
}

/// Everything the daemon's --metrics-out snapshot tells about the layers
/// below the socket.
void read_daemon_metrics(const std::string& path, double lifetime_s,
                         RunResult& result) {
  std::ifstream in(path);
  std::stringstream text;
  if (in.is_open()) text << in.rdbuf();
  mbus::obs::MetricsSnapshot snapshot;
  if (!mbus::obs::snapshot_from_json(text.str(), snapshot)) {
    result.notes.push_back(cat("no daemon metrics snapshot at ", path));
    return;
  }
  const auto counter = [&](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto histogram = [&](const std::string& name) {
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? mbus::obs::HistogramSnapshot{}
                                           : it->second;
  };
  auto& m = result.metrics;
  // Means, not quantiles: the histograms' quantiles are bucket bounds.
  m["service.server_us"] = histogram("svc.request_us").mean();
  m["util.pool.queue_wait_us"] = histogram("pool.queue_wait_us").mean();
  m["util.pool.task_run_us"] = histogram("pool.task_run_us").mean();
  double busy_us = 0.0;
  for (int w = 0; w < kWorkers; ++w) {
    busy_us += counter(cat("pool.worker.", w, ".busy_us"));
  }
  m["util.pool.busy_frac"] = busy_us / (kWorkers * lifetime_s * 1e6);
  m["service.shed"] = counter("svc.requests.shed");
  m["service.deadline_exceeded"] = counter("svc.requests.deadline_exceeded");
  result.notes.push_back(cat("daemon metrics snapshot: ", path));
}

/// Replay every kept reply in-process; in a traced run also time the
/// server-side stages and the layers below them.
void check_replies(const LoadGen& gen, std::uint64_t seed,
                   double simulate_share, Tracer& tracer, RunResult& result) {
  std::int64_t mismatches = 0;
  std::vector<double> transport_us;
  for (const Checked& kept : gen.checked) {
    const ServiceRequest request =
        make_request(seed, kept.index, simulate_share);
    const std::int64_t start = now_ns();
    ServiceRequest parsed;
    {
      auto span = tracer.span("service.parse_request", 0, request.id);
      parsed = mbus::service::parse_request(
          mbus::service::format_request(request));
    }
    ServiceReply local;
    {
      auto span = tracer.span("service.execute",
                              request.op == Op::kSimulate ? 1 : 0, request.id);
      local = mbus::service::execute_request(parsed, nullptr);
    }
    {
      auto span = tracer.span("service.format_reply", 0, request.id);
      (void)mbus::service::format_reply(local);
    }
    const std::int64_t in_process_ns = now_ns() - start;
    if (kept.open_loop && request.op == Op::kBandwidth) {
      transport_us.push_back(
          static_cast<double>(kept.round_trip_ns - in_process_ns) / 1000.0);
    }
    const ServiceReply served = mbus::service::parse_reply(kept.payload);
    if (!served.ok || served.fields != local.fields) {
      if (mismatches++ == 0) {
        result.fail_check(cat("served reply differs from in-process "
                              "execute_request: ",
                              mbus::service::format_request(request), " -> ",
                              kept.payload));
      }
    }
    if (tracer.enabled() && request.op == Op::kBandwidth) {
      const BuiltPoint point =
          build_point(tracer, request.topo, request.workload, request.rate,
                      request.topo.processors);
      probe_closed_form(tracer, *point.topology, point.workload,
                        request.topo.processors);
    }
  }
  std::vector<const Checked*> open_loop;
  for (const Checked& kept : gen.checked) {
    if (kept.open_loop) open_loop.push_back(&kept);
  }
  std::sort(open_loop.begin(), open_loop.end(),
            [](const Checked* a, const Checked* b) { return a->index < b->index; });
  Digest digest;
  for (const Checked* kept : open_loop) digest.add(kept->payload);
  result.notes.push_back(cat("checked ", gen.checked.size(),
                             " served replies bit for bit, ", mismatches,
                             " mismatches; result.digest ", digest.value()));
  if (tracer.enabled() && !transport_us.empty()) {
    result.metrics["service.transport_us"] = median(transport_us);
  }
}

}  // namespace

RunResult run_serving(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  const bool light = options.workload == "serve_light";
  const double open_rate = light ? kLightRate : kMixedRate;
  const double simulate_share = light ? 0.0 : kMixedSimulateShare;
  const std::string socket = options.workdir + "/mbusd.sock";
  const std::string metrics_out = daemon_metrics_path(options);
  std::remove(metrics_out.c_str());
  mbus::ScopedSigpipeIgnore sigpipe_guard;
  // Wake ppoll within a microsecond of a send time, not the default 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const CoreSplit cores = split_cores();
  const GeneratorPin pin(cores);

  std::vector<double> setup;
  if (!options.trace) measure_setup(options, socket, cores, result, setup);

  Tracer* client_tracer = tracer.enabled() ? &tracer : nullptr;
  const double window_seconds =
      std::max(kMinWindowSeconds, kWindowSamples / open_rate);
  WindowedLatency latency(window_seconds);
  std::vector<double> lag;
  const double open_seconds = options.seconds * kOpenLoopShare;
  const double closed_seconds = options.seconds - open_seconds;

  const double daemon_start = now_s();
  Daemon daemon(options.mbusd_path, socket,
                options.trace ? metrics_out : "", cores);
  double peak_rss = 0.0;
  // Closed-loop ok replies; in a traced run, half the closed loop runs
  // without and half with client-side spans, and the ratio of their
  // replies is the tracing overhead.
  std::int64_t closed_ok = 0;
  std::int64_t traced_closed_ok = 0;
  {
    LoadGen gen(socket, options.seed, simulate_share);
    for (int round = 0; round < kRounds; ++round) {
      gen.open_loop(open_rate, open_seconds / kRounds, client_tracer, latency,
                    lag);
      const double closed = closed_seconds / kRounds;
      if (options.trace) {
        closed_ok += gen.closed_loop(closed / 2, nullptr);
        traced_closed_ok += gen.closed_loop(closed / 2, &tracer);
      } else {
        closed_ok += gen.closed_loop(closed, nullptr);
      }
    }
    peak_rss = peak_rss_mb(daemon.pid());

    for (const Tally* tally : {&gen.open, &gen.closed}) {
      result.attempted += tally->sent;
      result.failed += tally->not_ok + tally->lost;
      std::string codes;
      for (const auto& [code, count] : tally->error_codes) {
        codes += cat(" ", code, "=", count);
      }
      result.notes.push_back(cat(tally == &gen.open ? "open loop" : "closed loop",
                                 ": sent=", tally->sent, " ok=", tally->ok,
                                 " not_ok=", tally->not_ok, " lost=",
                                 tally->lost, codes));
      if (tally->lost > 0) {
        result.fail_check(cat(tally->lost, " requests never got a reply"));
      }
    }
    check_replies(gen, options.seed, simulate_share, tracer, result);
  }  // connections close here, so the drain does not wait for them
  if (!daemon.stop()) result.fail_check("mbusd did not drain to exit 0");
  const double daemon_lifetime = now_s() - daemon_start;

  // A window counts when it holds at least half the samples its length
  // should, which drops only a short tail at the end of the phase.
  const auto min_samples = static_cast<std::size_t>(
      open_rate * std::min(window_seconds, open_seconds) / 2);
  const double lag_p99 = nearest_rank(lag, 0.99);
  const double lag_max = nearest_rank(lag, 1.0);
  result.notes.push_back(cat(
      "open loop at ", open_rate, "/s: ", latency.count(),
      " latency samples (", latency.failures(), " failed) in ",
      latency.windows(min_samples), " windows of ", window_seconds,
      " s; generator lag p99 ", lag_p99, " ms, max ", lag_max, " ms"));
  if (lag_p99 > 1.0) {
    result.notes.push_back(
        "INVALID RUN: generator lag p99 exceeds 1 ms; the machine could not "
        "keep to the schedule");
  }
  if (!options.trace && !latency.supports(kTailQuantile, min_samples)) {
    result.fail_check(
        "latency_tail_ms: a window has fewer than 10 samples beyond it");
  }

  auto& m = result.metrics;
  if (options.trace) {
    m["trace.overhead_frac"] =
        static_cast<double>(closed_ok) / static_cast<double>(traced_closed_ok) - 1.0;
    m["loadgen.lag_p99_ms"] = lag_p99;
    m["loadgen.lag_max_ms"] = lag_max;
    read_daemon_metrics(metrics_out, daemon_lifetime, result);
  } else {
    measure_setup(options, socket, cores, result, setup);
    m["setup_s"] = median(setup);
    m["throughput_per_s"] = static_cast<double>(closed_ok) / closed_seconds;
    m["latency_p50_ms"] = latency.quantile(0.50, min_samples);
    m["latency_tail_ms"] = latency.quantile(kTailQuantile, min_samples);
    m["peak_rss_mb"] = peak_rss;
  }
  return result;
}

}  // namespace mbus_bench
