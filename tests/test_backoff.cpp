// Retry-backoff clamp regression tests: exponential growth must never
// escape max_backoff — not through std::pow saturation, not through the
// jitter multiplier.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/backoff.h"

namespace {

using namespace adapt;
using adapt::common::Rng;
using adapt::sim::BackoffParams;
using adapt::sim::backoff_delay;

TEST(Backoff, GrowsExponentiallyUnderTheCap) {
  BackoffParams p;
  p.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 0, rng), 5.0);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 1, rng), 10.0);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 2, rng), 20.0);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 6, rng), 320.0);
}

// Retry counts far past the cap saturate std::pow to +inf; the clamp
// must turn that into exactly max, never infinity or NaN.
TEST(Backoff, PowOverflowClampsToMax) {
  BackoffParams p;
  p.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 7, rng), 600.0);  // 640 pre-clamp
  EXPECT_DOUBLE_EQ(backoff_delay(p, 100, rng), 600.0);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 100000, rng), 600.0);
}

// The jitter multiplier can exceed 1: the post-jitter clamp keeps the
// final delay under the cap for every draw.
TEST(Backoff, JitteredDelayNeverExceedsMax) {
  BackoffParams p;
  p.jitter = 0.5;
  Rng rng(42);
  for (int retries = 0; retries < 40; ++retries) {
    for (int draw = 0; draw < 64; ++draw) {
      const double delay = backoff_delay(p, retries, rng);
      EXPECT_TRUE(std::isfinite(delay));
      EXPECT_GT(delay, 0.0);
      EXPECT_LE(delay, p.max);
    }
  }
}

}  // namespace
