// Map-phase simulator: deterministic micro-scenarios, failure injection,
// and property sweeps (conservation, completeness) across policies,
// replication levels and seeds.
#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "hdfs/namenode.h"
#include "placement/random_policy.h"
#include "sim/mapreduce_sim.h"

namespace {

using namespace adapt;
using namespace adapt::sim;
using cluster::AvailabilityMode;
using cluster::Cluster;
using cluster::NodeSpec;
using common::kMiB;
using common::mbps;

Cluster bare_cluster(std::size_t n, double bps = mbps(8)) {
  Cluster cluster;
  cluster.nodes.resize(n);
  for (NodeSpec& node : cluster.nodes) {
    node.uplink_bps = bps;
    node.downlink_bps = bps;
  }
  return cluster;
}

// Places `blocks` blocks with explicit replica lists.
hdfs::FileId plant_file(hdfs::NameNode& nn,
                        const std::vector<std::vector<cluster::NodeIndex>>&
                            replicas) {
  common::Rng rng(1);
  const hdfs::FileId id = nn.create_file(
      "f", static_cast<std::uint32_t>(replicas.size()),
      static_cast<int>(replicas[0].size()),
      placement::make_random_policy(nn.node_count()), rng);
  // Rewrite the random placement with the requested one.
  for (std::size_t b = 0; b < replicas.size(); ++b) {
    const hdfs::BlockId block = nn.file(id).blocks[b];
    const auto old_replicas = nn.block(block).replicas;
    for (const auto node : old_replicas) nn.remove_replica(block, node);
    for (const auto node : replicas[b]) nn.add_replica(block, node);
  }
  return id;
}

TEST(Simulation, FailureFreeSingleNodeIsSerial) {
  const Cluster cluster = bare_cluster(1);
  hdfs::NameNode nn(1);
  const auto file = plant_file(nn, {{0}, {0}, {0}, {0}});
  SimJobConfig config;
  config.gamma = 10.0;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_DOUBLE_EQ(r.elapsed, 40.0);
  EXPECT_DOUBLE_EQ(r.locality, 1.0);
  EXPECT_EQ(r.local_wins, 4u);
  EXPECT_EQ(r.attempts_failed, 0u);
  EXPECT_DOUBLE_EQ(r.overhead.misc, 0.0);
}

TEST(Simulation, RemoteExecutionPaysMigration) {
  // All blocks on node 0; node 1 helps by fetching over the network.
  const Cluster cluster = bare_cluster(2);
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}, {0}, {0}, {0}});
  SimJobConfig config;
  config.gamma = 30.0;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  // One 64 MiB block at 8 Mb/s is ~67 s; stealing must have happened.
  EXPECT_GT(r.remote_wins, 0u);
  EXPECT_LT(r.elapsed, 4 * 30.0);
  EXPECT_GT(r.overhead.migration, 0.0);
  EXPECT_LT(r.locality, 1.0);
}

TEST(Simulation, InterruptionCausesReworkAndRecovery) {
  // Node 0 is down [15, 35): its second task (started at 10) is killed
  // 5 s in, re-run after recovery.
  Cluster cluster = bare_cluster(1);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{15.0, 35.0}};
  hdfs::NameNode nn(1);
  const auto file = plant_file(nn, {{0}, {0}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.allow_origin_fetch = false;
  config.replay_horizon = 1e6;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  // Timeline: task A [0,10], task B starts 10, killed at 15 (5 s
  // rework), node back 35, B re-runs [35,45].
  EXPECT_DOUBLE_EQ(r.elapsed, 45.0);
  EXPECT_DOUBLE_EQ(r.overhead.rework, 5.0);
  EXPECT_DOUBLE_EQ(r.overhead.recovery, 20.0);
  EXPECT_EQ(r.attempts_failed, 1u);
}

TEST(Simulation, AllReplicasDownTriggersOriginFetch) {
  // Node 0 holds the only replica and is down the whole job; node 1
  // must re-fetch from the origin after the reissue delay.
  Cluster cluster = bare_cluster(2);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{0.0, 1e5}};
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.origin_fetch_delay = 50.0;
  config.replay_horizon = 2e5;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_EQ(r.origin_wins, 1u);
  // Ripens at 50, transfer ~67 s, execute 10 s.
  const double transfer = common::transfer_time(64 * kMiB, mbps(8));
  EXPECT_NEAR(r.elapsed, 50.0 + transfer + 10.0, 1.0);
}

TEST(Simulation, WithoutOriginTheJobWaitsForTheNode) {
  Cluster cluster = bare_cluster(2);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{0.0, 500.0}};
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.allow_origin_fetch = false;
  config.replay_horizon = 1e4;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_DOUBLE_EQ(r.elapsed, 510.0);
  EXPECT_EQ(r.local_wins, 1u);
}

TEST(Simulation, SecondReplicaAvoidsTheWait) {
  Cluster cluster = bare_cluster(2);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{0.0, 500.0}};
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0, 1}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.allow_origin_fetch = false;
  config.replay_horizon = 1e4;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_DOUBLE_EQ(r.elapsed, 10.0);  // node 1 runs it locally
}

TEST(Simulation, TransferStallsThroughShortSourceOutage) {
  // Node 0 holds the block and goes down briefly mid-transfer; node 1's
  // fetch resumes shifted instead of aborting.
  Cluster cluster = bare_cluster(2);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  // Node 0 executes its task [0,1] then its outage [30, 40).
  cluster.nodes[0].down_intervals = {{30.0, 40.0}};
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}, {0}});
  SimJobConfig config;
  config.gamma = 1.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.transfer_stall_timeout = 60.0;
  config.replay_horizon = 1e4;
  config.scheduler.speculation = false;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  const double transfer = common::transfer_time(64 * kMiB, mbps(8));
  // Node 1 fetches the second block starting at 0; the 10 s outage
  // shifts completion: transfer + 10 + gamma... unless node 0 finished
  // both locally first. Node 0: task A [0,1], then B is already running
  // remotely; it completes at transfer + 10 + 1 ~ 78 s unless node 0's
  // local speculation is disabled (it is) and B is remote-only.
  EXPECT_EQ(r.transfers_aborted, 0u);
  EXPECT_NEAR(r.elapsed, transfer + 10.0 + 1.0, 1.5);
}

TEST(Simulation, SourceDeathBeyondTimeoutAbortsTransfer) {
  Cluster cluster = bare_cluster(2);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{5.0, 5000.0}};
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}, {0}});
  SimJobConfig config;
  config.gamma = 1.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.transfer_stall_timeout = 30.0;
  config.origin_fetch_delay = 100.0;
  config.replay_horizon = 1e4;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_GE(r.aborts_src_timeout, 1u);
  EXPECT_GE(r.origin_wins, 1u);
  EXPECT_LT(r.elapsed, 500.0);  // rescued well before the node returns
}

TEST(Simulation, SpeculationRescuesStalledTransfer) {
  // Node 1 fetches from node 0; node 0 dies for a long time; node 2
  // (which also has a replica... no — node 2 is idle) the task's origin
  // rescue is slower than node 0's own return here, so instead check
  // that a duplicate eventually wins and duplicates are accounted.
  Cluster cluster = bare_cluster(3);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{2.0, 400.0}};
  hdfs::NameNode nn(3);
  // Two blocks on node 0 so node 1 starts a remote fetch immediately.
  const auto file = plant_file(nn, {{0}, {0}});
  SimJobConfig config;
  config.gamma = 1.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.transfer_stall_timeout = 1e4;  // never aborts on its own
  config.origin_fetch_delay = 20.0;
  config.replay_horizon = 1e4;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  // The stalled fetch is overdue; an idle node re-fetches from the
  // origin and wins; the stalled duplicate is killed.
  EXPECT_GE(r.origin_wins, 1u);
  EXPECT_GE(r.attempts_killed + r.attempts_failed, 1u);
  EXPECT_LT(r.elapsed, 400.0);
}

// ---------------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------------

struct SweepCase {
  std::size_t nodes;
  int replication;
  std::uint64_t seed;
  bool speculation;
  bool origin;
};

class SimulationProperties : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SimulationProperties, InvariantsHold) {
  const SweepCase param = GetParam();
  cluster::EmulationConfig emu;
  emu.node_count = param.nodes;
  emu.interrupted_ratio = 0.5;
  const Cluster cluster = cluster::emulated_cluster(emu);

  hdfs::NameNode nn(cluster.size());
  common::Rng rng(param.seed);
  const auto file = nn.create_file(
      "f", static_cast<std::uint32_t>(cluster.size() * 10),
      param.replication, placement::make_random_policy(cluster.size()), rng);

  SimJobConfig config;
  config.gamma = 6.0;
  config.seed = param.seed;
  config.scheduler.speculation = param.speculation;
  config.allow_origin_fetch = param.origin;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  // Every task completed exactly once.
  EXPECT_EQ(r.tasks, cluster.size() * 10);
  EXPECT_EQ(r.local_wins + r.remote_wins + r.origin_wins, r.tasks);
  // Locality is a proper fraction.
  EXPECT_GE(r.locality, 0.0);
  EXPECT_LE(r.locality, 1.0);
  // Conservation: finalize() already threw if the components exceeded
  // wall-clock node-seconds; misc is the non-negative residual.
  EXPECT_GE(r.overhead.misc, 0.0);
  const double wall = r.elapsed * static_cast<double>(cluster.size());
  EXPECT_NEAR(r.overhead.base + r.overhead.total_overhead(), wall,
              1e-6 * wall);
  // Attempt bookkeeping: starts = wins + failures + kills.
  EXPECT_EQ(r.attempts_started,
            r.tasks + r.attempts_failed + r.attempts_killed);
  // Abort reasons partition the aborted set.
  EXPECT_EQ(r.transfers_aborted,
            r.aborts_dst_down + r.aborts_src_timeout + r.aborts_redundant);
  EXPECT_GT(r.elapsed, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulationProperties,
    ::testing::Values(SweepCase{16, 1, 11, true, true},
                      SweepCase{16, 2, 12, true, true},
                      SweepCase{32, 1, 13, false, true},
                      SweepCase{32, 2, 14, true, false},
                      SweepCase{64, 1, 15, true, true},
                      SweepCase{64, 3, 16, false, false},
                      SweepCase{32, 1, 17, true, true},
                      SweepCase{32, 1, 18, true, true}),
    [](const auto& info) {
      const SweepCase& c = info.param;
      return "n" + std::to_string(c.nodes) + "_r" +
             std::to_string(c.replication) + "_s" +
             std::to_string(c.seed) + (c.speculation ? "_spec" : "_nospec") +
             (c.origin ? "_origin" : "_noorigin");
    });

TEST(Simulation, DeterministicAcrossRuns) {
  cluster::EmulationConfig emu;
  emu.node_count = 32;
  const Cluster cluster = cluster::emulated_cluster(emu);
  auto run_once = [&] {
    hdfs::NameNode nn(cluster.size());
    common::Rng rng(42);
    const auto file = nn.create_file(
        "f", 320, 1, placement::make_random_policy(cluster.size()), rng);
    SimJobConfig config;
    config.gamma = 6.0;
    config.seed = 99;
    MapReduceSimulation sim(cluster, nn, file, config);
    return sim.run();
  };
  const JobResult a = run_once();
  const JobResult b = run_once();
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.local_wins, b.local_wins);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(Simulation, ValidatesConfig) {
  const Cluster cluster = bare_cluster(1);
  hdfs::NameNode nn(1);
  const auto file = plant_file(nn, {{0}});
  SimJobConfig config;
  config.gamma = 0.0;
  EXPECT_THROW(MapReduceSimulation(cluster, nn, file, config),
               std::invalid_argument);
  config.gamma = 1.0;
  config.scheduler.node_quotes = {-1.0};
  EXPECT_THROW(MapReduceSimulation(cluster, nn, file, config),
               std::invalid_argument);
}

}  // namespace
