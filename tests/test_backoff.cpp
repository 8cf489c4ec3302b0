// Retry-backoff clamp regression tests: exponential growth must never
// escape max_backoff — not through std::pow saturation, not through the
// jitter multiplier — and both retry drivers must reject degenerate
// backoff configs at construction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "cluster/network.h"
#include "cluster/node_mask.h"
#include "hdfs/namenode.h"
#include "placement/random_policy.h"
#include "sim/backoff.h"
#include "sim/event_queue.h"
#include "sim/migration.h"
#include "sim/rereplication.h"

namespace {

using namespace adapt;
using adapt::common::Rng;
using adapt::sim::BackoffParams;
using adapt::sim::backoff_delay;
using adapt::sim::backoff_params_valid;

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

TEST(Backoff, ParamValidation) {
  EXPECT_TRUE(backoff_params_valid({}));
  BackoffParams p;
  p.max = 0.0;
  EXPECT_FALSE(backoff_params_valid(p));
  p.max = -5.0;
  EXPECT_FALSE(backoff_params_valid(p));
  p.max = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(backoff_params_valid(p));
  p = {};
  p.factor = 0.5;  // shrinking "backoff" is a config bug
  EXPECT_FALSE(backoff_params_valid(p));
  p = {};
  p.base = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(backoff_params_valid(p));
  p = {};
  p.jitter = 1.5;
  EXPECT_FALSE(backoff_params_valid(p));
}

cluster::Network make_net(std::size_t nodes) {
  cluster::Network::Config config;
  config.uplink_bps.assign(nodes, 1024.0 * 1024.0 * 8);
  config.downlink_bps.assign(nodes, 1024.0 * 1024.0 * 8);
  return cluster::Network(config);
}

// Both retry drivers reject a degenerate backoff.max at construction
// instead of scheduling unbounded (or infinite) retry delays.
TEST(Backoff, DriversRejectBadMaxBackoff) {
  sim::EventQueue queue;
  hdfs::NameNode nn(2);
  cluster::Network net = make_net(2);
  const cluster::NodeMask up(2, /*value=*/true);

  sim::ReReplicator::Config rconfig;
  rconfig.backoff.max = 0.0;
  EXPECT_THROW(sim::ReReplicator(queue, nn, net, 1024, rconfig, Rng(1), up),
               std::invalid_argument);
  rconfig.backoff.max = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sim::ReReplicator(queue, nn, net, 1024, rconfig, Rng(1), up),
               std::invalid_argument);

  sim::MigrationDriver::Config mconfig;
  mconfig.backoff.max = 0.0;
  EXPECT_THROW(sim::MigrationDriver(queue, nn, net, 1024, mconfig, Rng(1), up),
               std::invalid_argument);
  mconfig.backoff.max = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim::MigrationDriver(queue, nn, net, 1024, mconfig, Rng(1), up),
               std::invalid_argument);
}

}  // namespace
