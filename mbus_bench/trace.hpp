// Spans recorded by the benchmark around its own calls into each layer.
//
// A span has a name, a tag (the system size N, or a request kind), start
// and end times, the span that was open when it began (its parent), and
// the request it belongs to. Spans stay in memory: the first `keep` are
// kept whole for the trace file, and every span is folded into per-(name,
// tag) totals as it closes, so a long traced run needs bounded memory.
// A span's self time is its duration minus the time its child spans
// cover. Derived per-call quantities (say, nanoseconds per simulated
// cycle) are folded into the same totals with add_value().
//
// A disabled tracer records nothing and costs one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mbus_bench {

class Tracer {
 public:
  struct Span {
    std::string_view name;
    int tag = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root or a dropped span
  };
  struct Totals {
    std::int64_t calls = 0;
    double self_sum = 0.0;  // nanoseconds for spans; the value for add_value
  };

  /// Closes the span it opened when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, int tag,
          std::uint64_t request)
        : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->open(name, tag, request);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  Tracer(bool enabled, std::size_t keep)
      : enabled_(enabled), keep_(keep), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Names must be string literals: spans keep a view of them.
  Scope span(std::string_view name, int tag = 0, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, tag, request);
  }

  /// Fold one derived per-call value into the (name, tag) totals.
  void add_value(std::string_view name, int tag, double value) {
    if (!enabled_) return;
    Totals& t = totals_[{name, tag}];
    ++t.calls;
    t.self_sum += value;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::int64_t dropped() const noexcept { return dropped_; }
  const std::map<std::pair<std::string_view, int>, Totals>& totals() const {
    return totals_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Frame {
    int index;  // kept span index, or -1
    std::string_view name;
    int tag;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  void open(std::string_view name, int tag, std::uint64_t request) {
    const std::int64_t start = now_ns();
    int index = -1;
    if (spans_.size() < keep_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back(Span{name, tag, request, start, start,
                            stack_.empty() ? -1 : stack_.back().index});
    } else {
      ++dropped_;
    }
    stack_.push_back(Frame{index, name, tag, start, 0});
  }

  void close() {
    const std::int64_t end = now_ns();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - frame.start_ns;
    if (frame.index >= 0) spans_[static_cast<std::size_t>(frame.index)].end_ns = end;
    Totals& t = totals_[{frame.name, frame.tag}];
    ++t.calls;
    t.self_sum += static_cast<double>(duration - frame.child_ns);
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  bool enabled_;
  std::size_t keep_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::int64_t dropped_ = 0;
  std::map<std::pair<std::string_view, int>, Totals> totals_;
};

}  // namespace mbus_bench
