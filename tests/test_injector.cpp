#include <gtest/gtest.h>

#include <vector>

#include "cluster/node.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/injector.h"

namespace {

using namespace adapt;
using namespace adapt::sim;
using cluster::ArrivalClock;
using cluster::AvailabilityMode;
using cluster::NodeSpec;

struct Recorder : InterruptionInjector::Listener {
  struct Event {
    cluster::NodeIndex node;
    bool up;
    common::Seconds when;
  };
  EventQueue* queue = nullptr;
  std::vector<Event> events;
  void on_node_down(cluster::NodeIndex node) override {
    events.push_back({node, false, queue->now()});
  }
  void on_node_up(cluster::NodeIndex node) override {
    events.push_back({node, true, queue->now()});
  }
};

NodeSpec replay_node(std::vector<trace::DownInterval> intervals) {
  NodeSpec spec;
  spec.mode = AvailabilityMode::kReplay;
  spec.down_intervals = std::move(intervals);
  return spec;
}

TEST(Injector, ReplayExactIntervals) {
  std::vector<NodeSpec> nodes = {replay_node({{10.0, 20.0}, {50.0, 55.0}})};
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.replay_horizon = 100.0;
  config.replay_offsets.assign(nodes.size(), 0.0);
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(1),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 60.0; });
  ASSERT_GE(recorder.events.size(), 4u);
  EXPECT_FALSE(recorder.events[0].up);
  EXPECT_DOUBLE_EQ(recorder.events[0].when, 10.0);
  EXPECT_TRUE(recorder.events[1].up);
  EXPECT_DOUBLE_EQ(recorder.events[1].when, 20.0);
  EXPECT_DOUBLE_EQ(recorder.events[2].when, 50.0);
  EXPECT_DOUBLE_EQ(recorder.events[3].when, 55.0);
}

TEST(Injector, ReplayWrapsAroundHorizon) {
  std::vector<NodeSpec> nodes = {replay_node({{10.0, 20.0}})};
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.replay_horizon = 100.0;
  config.replay_offsets.assign(nodes.size(), 0.0);
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(1),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 250.0; });
  // Downs at 10, 110, 210.
  std::vector<common::Seconds> downs;
  for (const auto& e : recorder.events) {
    if (!e.up) downs.push_back(e.when);
  }
  ASSERT_GE(downs.size(), 3u);
  EXPECT_DOUBLE_EQ(downs[0], 10.0);
  EXPECT_DOUBLE_EQ(downs[1], 110.0);
  EXPECT_DOUBLE_EQ(downs[2], 210.0);
}

TEST(Injector, ReplayOffsetStraddlingOutageStartsDown) {
  std::vector<NodeSpec> nodes = {replay_node({{10.0, 30.0}})};
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.replay_horizon = 100.0;
  config.replay_offsets = {15.0};  // inside [10, 30): starts down
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(1),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 20.0; });
  ASSERT_GE(recorder.events.size(), 2u);
  EXPECT_FALSE(recorder.events[0].up);
  EXPECT_DOUBLE_EQ(recorder.events[0].when, 0.0);
  EXPECT_TRUE(recorder.events[1].up);
  EXPECT_DOUBLE_EQ(recorder.events[1].when, 15.0);  // 30 - 15
}

TEST(Injector, ModelAbsoluteClockMatchesSteadyState) {
  NodeSpec spec;
  spec.mode = AvailabilityMode::kModel;
  spec.arrival_clock = ArrivalClock::kAbsoluteTime;
  spec.params = {0.02, 10.0};  // rho = 0.2
  std::vector<NodeSpec> nodes = {spec};
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(5));
  injector.start();
  const double horizon = 2e6;
  queue.run_until([&] { return queue.now() >= horizon; });
  double down_time = 0.0;
  double down_since = -1.0;
  for (const auto& e : recorder.events) {
    if (!e.up && down_since < 0) down_since = e.when;
    if (e.up && down_since >= 0) {
      down_time += e.when - down_since;
      down_since = -1.0;
    }
  }
  // M/G/1: unavailable fraction = rho.
  EXPECT_NEAR(down_time / horizon, 0.2, 0.02);
}

TEST(Injector, ModelUptimeClockMatchesAlternatingRenewal) {
  NodeSpec spec;
  spec.mode = AvailabilityMode::kModel;
  spec.arrival_clock = ArrivalClock::kUptime;
  spec.params = {0.1, 8.0};  // up Exp(10), down Exp(8)
  std::vector<NodeSpec> nodes = {spec};
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(6));
  injector.start();
  const double horizon = 1e6;
  queue.run_until([&] { return queue.now() >= horizon; });
  double down_time = 0.0;
  double down_since = -1.0;
  for (const auto& e : recorder.events) {
    if (!e.up && down_since < 0) down_since = e.when;
    if (e.up && down_since >= 0) {
      down_time += e.when - down_since;
      down_since = -1.0;
    }
  }
  // Alternating renewal: unavailability = mu / (MTBI + mu) = 8/18.
  EXPECT_NEAR(down_time / horizon, 8.0 / 18.0, 0.02);
}

TEST(Injector, InitialDownStartsNodeDown) {
  NodeSpec spec;
  spec.mode = AvailabilityMode::kModel;
  spec.arrival_clock = ArrivalClock::kAbsoluteTime;
  spec.params = {1e-9, 5.0};  // practically no fresh arrivals
  std::vector<NodeSpec> nodes = {spec};
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.initial_down_until = {42.0};
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(7),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 50.0; });
  ASSERT_GE(recorder.events.size(), 2u);
  EXPECT_FALSE(recorder.events[0].up);
  EXPECT_DOUBLE_EQ(recorder.events[0].when, 0.0);
  EXPECT_TRUE(recorder.events[1].up);
  EXPECT_DOUBLE_EQ(recorder.events[1].when, 42.0);
}

TEST(Injector, DrawInitialDownStatistics) {
  NodeSpec stable;
  stable.mode = AvailabilityMode::kModel;
  stable.params = {0.01, 30.0};  // rho = 0.3
  NodeSpec unstable;
  unstable.mode = AvailabilityMode::kModel;
  unstable.params = {0.5, 3.0};  // rho = 1.5
  NodeSpec dedicated;  // kAlwaysUp

  std::vector<NodeSpec> nodes;
  for (int i = 0; i < 3000; ++i) nodes.push_back(stable);
  nodes.push_back(unstable);
  nodes.push_back(dedicated);

  common::Rng rng(8);
  const auto down = draw_initial_down(nodes, rng);
  std::size_t down_count = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    if (down[i] > 0) ++down_count;
  }
  EXPECT_NEAR(down_count, 900.0, 90.0);  // P(down) = rho = 0.3
  EXPECT_GT(down[3000], 1e5);            // unstable: effectively gone
  EXPECT_EQ(down[3001], 0.0);            // dedicated never starts down
}

TEST(Injector, DepartureHazardRemovesNodesForGood) {
  // 200 dedicated nodes with a 1/100 s^-1 departure hazard: by t = 100,
  // 1 - e^-1 ~ 63% have left, each with exactly one final down event.
  std::vector<NodeSpec> nodes(200);
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.departure_rate = 1.0 / 100.0;
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(17),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 100.0; });
  EXPECT_NEAR(static_cast<double>(injector.departures()), 200 * 0.632, 25.0);
  std::vector<int> downs(nodes.size(), 0);
  std::vector<common::Seconds> down_at(nodes.size(), -1.0);
  for (const auto& e : recorder.events) {
    EXPECT_FALSE(e.up);  // a departure is final: no node ever returns
    ++downs[e.node];
    down_at[e.node] = e.when;
  }
  for (cluster::NodeIndex i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(downs[i], injector.is_departed(i) ? 1 : 0);
    EXPECT_EQ(injector.up().test(i), !injector.is_departed(i));
    // The departure time is the final down event's; residents have none.
    EXPECT_EQ(injector.departed_at(i), down_at[i]);
  }
  EXPECT_EQ(injector.up().count(), nodes.size() - injector.departures());
}

TEST(Injector, BurstDepartsExpectedFraction) {
  std::vector<NodeSpec> nodes(400);
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.burst_at = 50.0;
  config.burst_fraction = 0.5;
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(23),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 60.0; });
  EXPECT_NEAR(static_cast<double>(injector.departures()), 200.0, 40.0);
  for (const auto& e : recorder.events) {
    EXPECT_FALSE(e.up);
    EXPECT_DOUBLE_EQ(e.when, 50.0);  // correlated: one instant
  }
}

TEST(Injector, DomainBurstTakesWholeDomainsDown) {
  // 12 dedicated nodes in 4 racks of 3; a 2-rack burst at t = 50 must
  // depart exactly two complete racks, all at the same instant.
  std::vector<NodeSpec> nodes(12);
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.domain_burst_at = 50.0;
  config.domain_burst_count = 2;
  config.domain_of = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(31),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 60.0; });
  EXPECT_EQ(injector.departures(), 6u);
  for (const auto& e : recorder.events) {
    EXPECT_FALSE(e.up);
    EXPECT_DOUBLE_EQ(e.when, 50.0);
  }
  // Correlated by construction: a rack is all-down or all-up.
  for (std::uint32_t d = 0; d < 4; ++d) {
    int departed = 0;
    for (cluster::NodeIndex i = 0; i < nodes.size(); ++i) {
      if (config.domain_of[i] == d && injector.is_departed(i)) ++departed;
    }
    EXPECT_TRUE(departed == 0 || departed == 3)
        << "rack " << d << " partially departed";
  }
}

TEST(Injector, DomainBurstCountClampsToDomainCount) {
  std::vector<NodeSpec> nodes(6);
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.domain_burst_at = 10.0;
  config.domain_burst_count = 99;  // more than the 3 racks that exist
  config.domain_of = {0, 0, 1, 1, 2, 2};
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(2),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 20.0; });
  EXPECT_EQ(injector.departures(), 6u);  // every domain hit once
}

TEST(Injector, DomainBurstRequiresDomainMap) {
  std::vector<NodeSpec> nodes(4);
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.domain_burst_at = 10.0;
  config.domain_burst_count = 1;  // armed, but domain_of left empty
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(2),
                                config);
  EXPECT_THROW(injector.start(), std::invalid_argument);
}

TEST(Injector, LateJoinerStartsAbsentThenJoins) {
  std::vector<NodeSpec> nodes(2);
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.join_at = {0.0, 30.0};
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(1),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 100.0; });
  // Node 1: down at 0 (absent), up at 30 (joins), then stays (kAlwaysUp).
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_EQ(recorder.events[0].node, 1u);
  EXPECT_FALSE(recorder.events[0].up);
  EXPECT_DOUBLE_EQ(recorder.events[0].when, 0.0);
  EXPECT_EQ(recorder.events[1].node, 1u);
  EXPECT_TRUE(recorder.events[1].up);
  EXPECT_DOUBLE_EQ(recorder.events[1].when, 30.0);
  EXPECT_TRUE(injector.up().test(1));
}

TEST(Injector, JoinerThatDepartsFirstNeverJoins) {
  std::vector<NodeSpec> nodes(1);
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.join_at = {30.0};
  config.departure_rate = 10.0;  // departs within ~0.1 s w.h.p.
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(3),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 100.0; });
  EXPECT_TRUE(injector.is_departed(0));
  EXPECT_FALSE(injector.up().test(0));
  // One absent-at-start down event; the join at 30 was suppressed.
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_FALSE(recorder.events[0].up);
}

// Property: replay wrap-around past the horizon preserves the trace's
// structure — per-node transitions strictly alternate down/up with
// strictly increasing timestamps, and each wrapped cycle repeats the
// recorded intervals shifted by exactly one horizon.
TEST(Injector, ReplayWrapAroundKeepsIntervalsOrderedAndPeriodic) {
  std::vector<NodeSpec> nodes = {replay_node({{10.0, 20.0}, {50.0, 55.0}}),
                                 replay_node({{0.0, 25.0}})};
  EventQueue queue;
  Recorder recorder;
  recorder.queue = &queue;
  InterruptionInjector::Config config;
  config.replay_horizon = 100.0;
  config.replay_offsets.assign(nodes.size(), 0.0);
  InterruptionInjector injector(queue, nodes, recorder, common::Rng(2),
                                config);
  injector.start();
  queue.run_until([&] { return queue.now() >= 350.0; });

  std::vector<std::vector<Recorder::Event>> per_node(nodes.size());
  for (const auto& e : recorder.events) per_node[e.node].push_back(e);
  for (cluster::NodeIndex n = 0; n < nodes.size(); ++n) {
    const auto& events = per_node[n];
    ASSERT_GE(events.size(), 6u);
    for (std::size_t i = 0; i < events.size(); ++i) {
      // Strict down/up alternation starting with a down...
      EXPECT_EQ(events[i].up, i % 2 == 1);
      // ...at strictly increasing times.
      if (i > 0) {
        EXPECT_GT(events[i].when, events[i - 1].when);
      }
    }
    // Periodicity: cycle c is the recorded trace shifted by c * horizon.
    const std::size_t per_cycle = 2 * nodes[n].down_intervals.size();
    for (std::size_t i = per_cycle; i < events.size(); ++i) {
      EXPECT_DOUBLE_EQ(events[i].when, events[i - per_cycle].when + 100.0);
      EXPECT_EQ(events[i].up, events[i - per_cycle].up);
    }
  }
}

TEST(Injector, ReplayUpAtHelper) {
  const NodeSpec node = replay_node({{10.0, 20.0}, {30.0, 40.0}});
  EXPECT_TRUE(replay_up_at(node, 5.0));
  EXPECT_FALSE(replay_up_at(node, 10.0));
  EXPECT_FALSE(replay_up_at(node, 19.9));
  EXPECT_TRUE(replay_up_at(node, 20.0));
  EXPECT_TRUE(replay_up_at(node, 25.0));
  EXPECT_FALSE(replay_up_at(node, 35.0));
  EXPECT_TRUE(replay_up_at(node, 45.0));
}

}  // namespace
