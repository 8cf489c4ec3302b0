// SchedulerPolicy API: policy-level decision tests against a scripted
// host (overdue boundary, attempt-cap saturation, calibrated quotes)
// and simulation-level tests for speculative cancellation racing
// completion and redundant k-launch degradation.
#include <gtest/gtest.h>

#include <limits>

#include "cluster/topology.h"
#include "hdfs/namenode.h"
#include "placement/random_policy.h"
#include "sim/mapreduce_sim.h"
#include "sim/scheduler_policy.h"

namespace {

using namespace adapt;
using namespace adapt::sim;
using cluster::AvailabilityMode;
using cluster::Cluster;
using cluster::NodeSpec;
using common::mbps;

// Scripted host: a fixed list of running attempts plus knobs for every
// query a policy may make.
class FakeHost : public SchedulerHost {
 public:
  std::vector<AttemptView> attempts;
  common::Seconds now_value = 0.0;
  double fresh_cost = 10.0;
  double calibration_ratio = 0.0;
  std::size_t attempts_per_task = 1;
  bool local = false;

  common::Seconds now() const override { return now_value; }
  std::size_t running_count() const override { return attempts.size(); }
  AttemptView running_attempt(std::size_t i) const override {
    return attempts[i];
  }
  bool task_running(std::uint32_t) const override { return true; }
  std::size_t attempt_count(std::uint32_t) const override {
    return attempts_per_task;
  }
  bool is_local_to(std::uint32_t, cluster::NodeIndex) const override {
    return local;
  }
  double estimated_cost_on(cluster::NodeIndex,
                           std::uint32_t) const override {
    return fresh_cost;
  }
  double cluster_calibration_ratio() const override {
    return calibration_ratio;
  }
};

AttemptView laggard(std::uint32_t task, cluster::NodeIndex node,
                    double slip, double remaining) {
  AttemptView a;
  a.task = task;
  a.node = node;
  a.alive = true;
  a.nominal_end = 100.0;
  a.projected_finish = 100.0 + slip;
  a.remaining = remaining;
  return a;
}

TEST(BaselinePolicy, OverdueBoundaryIsInclusive) {
  // The overdue threshold is one gamma of slip.
  const SchedulerPtr policy =
      make_scheduler(SchedulerConfig{}, /*gamma=*/30.0);
  FakeHost host;
  host.fresh_cost = 10.0;  // remaining 100 > 1.2 * 10: profitable

  // Slip exactly at the threshold qualifies (the scan skips only
  // attempts strictly under it) ...
  host.attempts = {laggard(7, /*node=*/1, /*slip=*/30.0, 100.0)};
  EXPECT_EQ(policy->pick_speculative(/*node=*/0, host), 7u);

  // ... one ulp under does not.
  host.attempts = {laggard(7, 1, 30.0 - 1e-9, 100.0)};
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());
}

TEST(BaselinePolicy, AutoOverdueIsOneGamma) {
  const SchedulerPtr policy = make_scheduler(SchedulerConfig{}, 12.0);
  FakeHost host;
  host.attempts = {laggard(7, 1, /*slip=*/12.0, 100.0)};
  EXPECT_EQ(policy->pick_speculative(0, host), 7u);
  host.attempts = {laggard(7, 1, 11.0, 100.0)};
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());
  EXPECT_EQ(policy->name(), "baseline");
  EXPECT_EQ(policy->extra_initial_launches(), 0);
  EXPECT_TRUE(policy->speculation_enabled());
}

TEST(BaselinePolicy, SaturatedAttemptCapBlocksDuplication) {
  const SchedulerPtr policy = make_scheduler(SchedulerConfig{}, 12.0);
  FakeHost host;
  host.attempts = {laggard(3, 1, 50.0, 100.0)};

  host.attempts_per_task = 2;  // at the cap: no further duplicates
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());

  host.attempts_per_task = 1;  // below it: the same laggard qualifies
  EXPECT_EQ(policy->pick_speculative(0, host), 3u);
}

TEST(BaselinePolicy, SlackGateAndOwnNodeExclusion) {
  const SchedulerPtr policy = make_scheduler(SchedulerConfig{}, 12.0);
  FakeHost host;
  host.attempts = {laggard(4, 1, 50.0, 100.0)};

  // Unprofitable: remaining <= slack * fresh cost.
  host.fresh_cost = 100.0;
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());

  // A node never duplicates an attempt it is itself running.
  host.fresh_cost = 10.0;
  EXPECT_FALSE(policy->pick_speculative(/*node=*/1, host).has_value());
}

TEST(CalibratedPolicy, QuoteOverrunTriggersWithoutSlip) {
  SchedulerConfig config;
  config.kind = SchedulerKind::kCalibrated;
  config.node_quotes = {20.0, 10.0};
  const SchedulerPtr policy = make_scheduler(config, 12.0);
  FakeHost host;

  // No projection slip at all, but the task has been running since
  // t = 0 on node 1 (quote 10): overdue once now > 1.5 * 10.
  AttemptView a = laggard(9, 1, /*slip=*/0.0, 100.0);
  a.first_start = 0.0;
  host.attempts = {a};
  host.now_value = 15.0;
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());
  host.now_value = 15.0 + 1e-9;
  EXPECT_EQ(policy->pick_speculative(0, host), 9u);

  // A higher cluster calibration ratio widens the margin: at ratio 2
  // the same attempt is within quote until t = 30.
  host.calibration_ratio = 2.0;
  host.now_value = 29.0;
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());
  host.now_value = 31.0;
  EXPECT_EQ(policy->pick_speculative(0, host), 9u);
}

TEST(CalibratedPolicy, NoQuoteFallsBackToSlipRule) {
  SchedulerConfig config;
  config.kind = SchedulerKind::kCalibrated;
  config.node_quotes = {};  // nothing learned
  const SchedulerPtr policy = make_scheduler(config, /*gamma=*/30.0);
  FakeHost host;
  host.now_value = 1e6;  // irrelevant without a quote

  host.attempts = {laggard(2, 1, /*slip=*/30.0, 100.0)};
  EXPECT_EQ(policy->pick_speculative(0, host), 2u);
  host.attempts = {laggard(2, 1, 29.0, 100.0)};
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());
}

TEST(RedundantPolicy, ShapeMatchesConfig) {
  SchedulerConfig config;
  config.kind = SchedulerKind::kRedundant;
  const SchedulerPtr policy = make_scheduler(config, 12.0);
  EXPECT_EQ(policy->name(), "redundant");
  EXPECT_EQ(policy->extra_initial_launches(), 1);  // k = 2
  EXPECT_FALSE(policy->speculation_enabled());
  FakeHost host;
  host.attempts = {laggard(1, 1, 1e6, 1e6)};
  EXPECT_FALSE(policy->pick_speculative(0, host).has_value());
}

// ---------------------------------------------------------------------
// Simulation-level behavior
// ---------------------------------------------------------------------

Cluster bare_cluster(std::size_t n, double bps = mbps(8)) {
  Cluster cluster;
  cluster.nodes.resize(n);
  for (NodeSpec& node : cluster.nodes) {
    node.uplink_bps = bps;
    node.downlink_bps = bps;
  }
  return cluster;
}

hdfs::FileId plant_file(hdfs::NameNode& nn,
                        const std::vector<std::vector<cluster::NodeIndex>>&
                            replicas) {
  common::Rng rng(1);
  const hdfs::FileId id = nn.create_file(
      "f", static_cast<std::uint32_t>(replicas.size()),
      static_cast<int>(replicas[0].size()),
      placement::make_random_policy(nn.node_count()), rng);
  for (std::size_t b = 0; b < replicas.size(); ++b) {
    const hdfs::BlockId block = nn.file(id).blocks[b];
    const auto old_replicas = nn.block(block).replicas;
    for (const auto node : old_replicas) nn.remove_replica(block, node);
    for (const auto node : replicas[b]) nn.add_replica(block, node);
  }
  return id;
}

TEST(SchedulerSimulation, SpeculativeCancellationRacesCompletion) {
  // Node 1 starts a remote fetch from node 0, which then dies for a long
  // time; an idle node's speculative origin rescue wins and the stalled
  // duplicate is cancelled — the race between a speculative win and the
  // racing original must keep the attempt ledger balanced.
  Cluster cluster = bare_cluster(3);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{2.0, 400.0}};
  hdfs::NameNode nn(3);
  const auto file = plant_file(nn, {{0}, {0}});
  SimJobConfig config;
  config.gamma = 1.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.transfer_stall_timeout = 1e4;  // never aborts on its own
  config.origin_fetch_delay = 20.0;
  config.replay_horizon = 1e4;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_GE(r.speculative_launches, 1u);
  EXPECT_GE(r.speculative_wins, 1u);
  EXPECT_LE(r.speculative_wins, r.speculative_launches);
  EXPECT_EQ(r.redundant_launches, 0u);  // baseline never pre-duplicates
  // Ledger: every start is a win, a failure, or a kill; the losing
  // sibling of each win was killed as redundant.
  EXPECT_EQ(r.attempts_started,
            r.tasks + r.attempts_failed + r.attempts_killed);
  EXPECT_EQ(r.local_wins + r.remote_wins + r.origin_wins, r.tasks);
}

TEST(SchedulerSimulation, RedundantLaunchesAndCancelsDuplicates) {
  // Replicated blocks on a healthy cluster: every fresh launch gets a
  // duplicate, first finish cancels the loser.
  const Cluster cluster = bare_cluster(4);
  hdfs::NameNode nn(4);
  const auto file =
      plant_file(nn, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.scheduler.kind = SchedulerKind::kRedundant;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_EQ(r.tasks, 4u);
  EXPECT_GE(r.redundant_launches, 1u);
  EXPECT_GE(r.attempts_killed, r.redundant_launches);
  EXPECT_EQ(r.attempts_started,
            r.tasks + r.attempts_failed + r.attempts_killed);
  EXPECT_EQ(r.local_wins + r.remote_wins + r.origin_wins, r.tasks);
}

TEST(SchedulerSimulation, RedundancyDegradesWhenKExceedsLiveNodes) {
  // k = 2 copies requested on a 1-node cluster: no duplicate fits; the
  // run must complete without inventing phantom attempts.
  const Cluster cluster = bare_cluster(1);
  hdfs::NameNode nn(1);
  const auto file = plant_file(nn, {{0}, {0}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.scheduler.kind = SchedulerKind::kRedundant;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_EQ(r.tasks, 2u);
  EXPECT_EQ(r.local_wins + r.remote_wins + r.origin_wins, r.tasks);
  EXPECT_EQ(r.redundant_launches, 0u);
  EXPECT_EQ(r.attempts_started,
            r.tasks + r.attempts_failed + r.attempts_killed);
}

TEST(SchedulerFactory, RejectsInvalidConfig) {
  SchedulerConfig config;
  config.node_quotes = {10.0, -1.0};
  EXPECT_THROW(make_scheduler(config, 12.0), ConfigError);
  // +inf quotes are legal: they mark unusable nodes.
  config = SchedulerConfig{};
  config.node_quotes = {10.0, std::numeric_limits<double>::infinity()};
  EXPECT_NO_THROW(make_scheduler(config, 12.0));
}

}  // namespace
