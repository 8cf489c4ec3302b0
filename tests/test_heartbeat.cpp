#include <gtest/gtest.h>

#include <vector>

#include "cluster/heartbeat.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/injector.h"

namespace {

using namespace adapt;
using adapt::cluster::HeartbeatCollector;

HeartbeatCollector::Config config_3s_2miss() {
  HeartbeatCollector::Config config;
  config.interval = 3.0;
  config.miss_threshold = 2;
  return config;
}

TEST(Heartbeat, MessageModeDetectsMisses) {
  HeartbeatCollector hb(1, config_3s_2miss());
  hb.observe_heartbeat(0, 3.0);
  hb.observe_heartbeat(0, 6.0);
  EXPECT_TRUE(hb.believed_up(0, 8.0));
  // Silence past 6 + 2*3 = 12 -> down.
  EXPECT_FALSE(hb.believed_up(0, 13.0));
  // Beats resume -> up, and the outage is recorded.
  hb.observe_heartbeat(0, 20.0);
  EXPECT_TRUE(hb.believed_up(0, 20.0));
  // Query before the next miss deadline (20 + 6).
  const auto p = hb.estimate(0, 25.0);
  EXPECT_GT(p.lambda, 0.0);
  EXPECT_NEAR(p.mu, 8.0, 1e-9);  // down at 12, up at 20
  // Silence after the last beat is itself a detected outage.
  EXPECT_FALSE(hb.believed_up(0, 30.0));
}

TEST(Heartbeat, TransitionModeAddsDetectionLatency) {
  HeartbeatCollector hb(1, config_3s_2miss());
  hb.notify_down(0, 10.0);
  EXPECT_TRUE(hb.believed_up(0, 12.0));    // not yet noticed
  EXPECT_FALSE(hb.believed_up(0, 16.1));   // 10 + 6 passed
  hb.notify_up(0, 40.0);
  const auto p = hb.estimate(0, 50.0);
  EXPECT_NEAR(p.mu, 40.0 - 16.0, 1e-9);
}

TEST(Heartbeat, ShortOutageEscapesDetection) {
  HeartbeatCollector hb(1, config_3s_2miss());
  hb.notify_down(0, 10.0);
  hb.notify_up(0, 12.0);  // back before 10 + 6
  EXPECT_TRUE(hb.believed_up(0, 100.0));
  const auto p = hb.estimate(0, 100.0);
  EXPECT_EQ(p.lambda, 0.0);
}

TEST(Heartbeat, TransitionModeNodesStayUpWithoutNotifications) {
  HeartbeatCollector hb(2, config_3s_2miss());
  // No heartbeats ever observed, no notifications: still believed up.
  EXPECT_TRUE(hb.believed_up(0, 1e6));
  EXPECT_EQ(hb.estimate(0, 1e6).lambda, 0.0);
}

TEST(Heartbeat, EstimatesAllNodes) {
  HeartbeatCollector hb(3, config_3s_2miss());
  hb.notify_down(1, 0.0);
  hb.notify_up(1, 100.0);
  const auto all = hb.estimates(200.0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].lambda, 0.0);
  EXPECT_GT(all[1].lambda, 0.0);
  EXPECT_EQ(all[2].lambda, 0.0);
}

HeartbeatCollector::Config config_with_dead_timeout(double timeout) {
  HeartbeatCollector::Config config = config_3s_2miss();
  config.dead_timeout = timeout;
  return config;
}

TEST(Heartbeat, BelievedDeadAfterTimeout) {
  HeartbeatCollector hb(1, config_with_dead_timeout(10.0));
  hb.notify_down(0, 20.0);
  // Believed down from 26 (detection latency 6); dead 10 s later.
  EXPECT_FALSE(hb.believed_dead(0, 30.0));
  EXPECT_FALSE(hb.believed_dead(0, 35.9));
  EXPECT_TRUE(hb.believed_dead(0, 36.0));
  // Sticky: still dead at any later query...
  EXPECT_TRUE(hb.believed_dead(0, 1e6));
  // ...until the node is heard from again.
  hb.notify_up(0, 50.0);
  EXPECT_FALSE(hb.believed_dead(0, 1e6));
  EXPECT_TRUE(hb.believed_up(0, 50.0));
}

TEST(Heartbeat, ZeroDeadTimeoutDisablesDeclaration) {
  HeartbeatCollector hb(1, config_3s_2miss());  // dead_timeout = 0
  hb.notify_down(0, 0.0);
  EXPECT_FALSE(hb.believed_up(0, 100.0));
  EXPECT_FALSE(hb.believed_dead(0, 1e9));
}

TEST(Heartbeat, ShortOutageNeverTurnsDead) {
  HeartbeatCollector hb(1, config_with_dead_timeout(10.0));
  hb.notify_down(0, 10.0);
  hb.notify_up(0, 20.0);  // believed down 16..20, under the timeout
  EXPECT_FALSE(hb.believed_dead(0, 1e6));
}

TEST(Heartbeat, MessageModeSilenceTurnsDead) {
  HeartbeatCollector hb(1, config_with_dead_timeout(10.0));
  hb.observe_heartbeat(0, 3.0);
  // Last beat at 3, misses detected at 9, dead at 19.
  EXPECT_FALSE(hb.believed_dead(0, 18.9));
  EXPECT_TRUE(hb.believed_dead(0, 19.1));
  hb.observe_heartbeat(0, 30.0);  // resurrects
  EXPECT_FALSE(hb.believed_dead(0, 30.0));
  EXPECT_TRUE(hb.believed_up(0, 30.0));
}

TEST(Heartbeat, Validation) {
  EXPECT_THROW(HeartbeatCollector(0, config_3s_2miss()),
               std::invalid_argument);
  HeartbeatCollector::Config bad;
  bad.interval = 0.0;
  EXPECT_THROW(HeartbeatCollector(1, bad), std::invalid_argument);
}

// Dead declaration fires at *exactly* down_since + dead_timeout, in
// message mode as in transition mode: elapsed == timeout is dead.
TEST(Heartbeat, MessageModeDeadAtExactTimeoutBoundary) {
  HeartbeatCollector::Config config = config_3s_2miss();
  config.dead_timeout = 10.0;
  HeartbeatCollector hb(1, config);
  hb.observe_heartbeat(0, 0.0);
  // Silence: believed down from 6 (latency 2*3); dead at exactly 16.
  EXPECT_TRUE(hb.believed_up(0, 5.9));
  EXPECT_FALSE(hb.believed_dead(0, 15.999999));
  EXPECT_TRUE(hb.believed_dead(0, 16.0));
}

// Property: a stream of delivered/missed beats must produce the same
// believed-up / believed-dead verdicts as the transition-level oracle
// that is told exactly when each silence begins and ends. Ground
// truth: a node that misses tick k went down right after its beat at
// tick k-1, so the oracle's notify_down lands at that last beat.
TEST(Heartbeat, PropertyMessageModeMatchesTransitionOracle) {
  adapt::common::Rng rng(1234);
  for (int trial = 0; trial < 64; ++trial) {
    HeartbeatCollector::Config config;
    config.interval = 3.0;
    config.miss_threshold = 1 + static_cast<int>(rng.uniform_index(3));
    config.dead_timeout = 5.0 + 10.0 * rng.uniform();
    HeartbeatCollector message(1, config);
    HeartbeatCollector oracle(1, config);

    const int ticks = 40;
    std::vector<bool> up(ticks);
    up[0] = true;  // both sides need one beat to arm detection
    for (int k = 1; k < ticks; ++k) up[k] = rng.uniform() < 0.7;

    for (int k = 0; k < ticks; ++k) {
      const double now = k * config.interval;
      if (up[k]) {
        message.observe_heartbeat(0, now);
        if (k > 0 && !up[k - 1]) oracle.notify_up(0, now);
      }
      // Down transition right after this delivered beat (or after the
      // final beat of the sequence: silence extends past the horizon).
      if (up[k] && (k + 1 == ticks || !up[k + 1])) {
        oracle.notify_down(0, now);
      }
      // Probe strictly inside the interval, away from event times.
      for (int q = 0; q < 3; ++q) {
        const double probe =
            now + config.interval * (0.05 + 0.9 * rng.uniform());
        ASSERT_EQ(message.believed_up(0, probe),
                  oracle.believed_up(0, probe))
            << "trial " << trial << " tick " << k << " probe " << probe;
        ASSERT_EQ(message.believed_dead(0, probe),
                  oracle.believed_dead(0, probe))
            << "trial " << trial << " tick " << k << " probe " << probe;
      }
    }
    // Far past the horizon both must have declared the silence dead.
    const double tail = ticks * config.interval + 100.0;
    ASSERT_TRUE(message.believed_dead(0, tail)) << "trial " << trial;
    ASSERT_TRUE(oracle.believed_dead(0, tail)) << "trial " << trial;
  }
}

// Transition-mode detection over a live interruption process: the
// detection latency, and the outages short enough to escape it, bias
// the estimates, yet over a long window they approach the truth.
TEST(Heartbeat, InjectorDrivenEstimatesApproachTruth) {
  cluster::EmulationConfig emu;
  emu.node_count = 8;
  emu.interrupted_ratio = 1.0;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  HeartbeatCollector::Config config;
  config.interval = 0.5;
  config.miss_threshold = 1;
  HeartbeatCollector collector(cl.size(), config);

  struct Forwarder : sim::InterruptionInjector::Listener {
    HeartbeatCollector* collector = nullptr;
    sim::EventQueue* queue = nullptr;
    void on_node_down(cluster::NodeIndex node) override {
      collector->notify_down(node, queue->now());
    }
    void on_node_up(cluster::NodeIndex node) override {
      collector->notify_up(node, queue->now());
    }
  };
  sim::EventQueue queue;
  Forwarder forwarder;
  forwarder.collector = &collector;
  forwarder.queue = &queue;
  // The 30% band holds on this stream. Busy periods at rho = 0.8 are
  // heavy-tailed: about a third of other seeds put one node's estimate
  // outside it.
  sim::InterruptionInjector injector(queue, cl.nodes, forwarder,
                                     common::Rng(3).fork(0x0b5e));
  injector.start();
  const double window = 20000.0;
  queue.run_until([&] { return queue.now() >= window; });

  const auto estimates = collector.estimates(window);
  const auto truth = cl.params();
  ASSERT_EQ(estimates.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(estimates[i].lambda, truth[i].lambda, 0.3 * truth[i].lambda)
        << "node " << i;
    EXPECT_NEAR(estimates[i].mu, truth[i].mu, 0.3 * truth[i].mu)
        << "node " << i;
  }
}

}  // namespace
