// Open-loop arrival schedule.
//
// Independent users do not wait for each other, so an open-loop generator
// decides every send time up front and keeps to it however slowly the
// server answers. Each request is timed from its scheduled send time, not
// from when the generator actually got round to sending it: a generator
// that falls behind would otherwise hide exactly the queueing delay a
// stalled server imposes on later requests. How late the generator ran is
// reported separately (its "lag").
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace mbus_bench {

/// Send times, in nanoseconds from the start of the phase, of a Poisson
/// arrival stream at `rate_per_s` lasting `seconds`. Same seed, same
/// schedule.
inline std::vector<std::int64_t> poisson_schedule(double rate_per_s,
                                                  double seconds,
                                                  std::uint64_t seed) {
  mbus::Xoshiro256 rng(seed);
  std::vector<std::int64_t> due_ns;
  due_ns.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform01()) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    due_ns.push_back(static_cast<std::int64_t>(t));
  }
  return due_ns;
}

}  // namespace mbus_bench
