// Retry backoff shared by the re-replication and migration drivers:
// exponential growth clamped to a maximum both before and after the
// jitter multiplier. The pre-jitter clamp keeps std::pow's saturation
// (+inf for large exponents) from ever reaching the schedule; the
// post-jitter clamp keeps the final delay under the cap too — the
// jitter multiplier can exceed 1, and a long give-up budget would
// otherwise double past any bound.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/units.h"

namespace adapt::sim {

struct BackoffParams {
  common::Seconds base = 5.0;
  double factor = 2.0;
  double jitter = 0.2;  // multiplier drawn from [1 - jitter, 1 + jitter]
  common::Seconds max = 600.0;
};

// Delay before retry number retries_done + 1. Consumes exactly one
// uniform draw when jitter > 0, and matches the historical
// clamp-before-jitter computation bit for bit whenever the jittered
// delay stays under the cap.
inline common::Seconds backoff_delay(const BackoffParams& p,
                                     int retries_done, common::Rng& rng) {
  double delay = p.base * std::pow(p.factor, retries_done);
  delay = std::min(delay, p.max);
  if (p.jitter > 0.0) {
    delay *= 1.0 - p.jitter + 2.0 * p.jitter * rng.uniform();
    delay = std::min(delay, p.max);
  }
  return delay;
}

}  // namespace adapt::sim
