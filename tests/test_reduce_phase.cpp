// Shuffle + reduce phase extension.
#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "common/units.h"
#include "sim/reduce_phase.h"

namespace {

using namespace adapt;
using namespace adapt::sim;
using common::kMiB;
using common::mbps;

cluster::Cluster bare_cluster(std::size_t n) {
  cluster::Cluster cluster;
  cluster.nodes.resize(n);
  for (cluster::NodeSpec& node : cluster.nodes) {
    node.uplink_bps = mbps(8);
    node.downlink_bps = mbps(8);
  }
  return cluster;
}

TEST(ReducePhase, SingleNodeIsComputeOnly) {
  const cluster::Cluster cl = bare_cluster(1);
  ReduceConfig config;
  config.reducers = 1;
  config.output_ratio = 1.0;
  config.gamma_reduce = 30.0;
  // Four map outputs, all on node 0, reducer on node 0: no transfers.
  ReducePhaseSimulation sim(cl, {0, 0, 0, 0}, config);
  const ReduceResult r = sim.run();
  EXPECT_DOUBLE_EQ(r.elapsed, 30.0);
  EXPECT_EQ(r.shuffle_fetches, 0u);
  EXPECT_EQ(r.shuffle_bytes, 0u);
}

TEST(ReducePhase, ShuffleMovesRemotePartitions) {
  const cluster::Cluster cl = bare_cluster(2);
  ReduceConfig config;
  config.reducers = 1;
  config.output_ratio = 0.5;
  config.gamma_reduce = 10.0;
  config.seed = 4;
  // Map outputs on both nodes; the reducer lands somewhere and fetches
  // the other node's aggregate (2 blocks * 0.5 * 64 MiB).
  ReducePhaseSimulation sim(cl, {0, 0, 1, 1}, config);
  const ReduceResult r = sim.run();
  EXPECT_EQ(r.shuffle_fetches, 1u);
  const double transfer =
      common::transfer_time(2 * (64 * kMiB / 2), mbps(8));
  EXPECT_NEAR(r.elapsed, transfer + 10.0, 1.0);
  EXPECT_EQ(r.shuffle_bytes, 2u * (64 * kMiB / 2));
}

TEST(ReducePhase, AutoGammaScalesWithShuffleVolume) {
  const cluster::Cluster cl = bare_cluster(1);
  ReduceConfig config;
  config.reducers = 1;
  config.output_ratio = 1.0;
  config.gamma_map = 12.0;
  // 3 blocks of output for 1 reducer at the map rate = 36 s.
  ReducePhaseSimulation sim(cl, {0, 0, 0}, config);
  EXPECT_NEAR(sim.run().elapsed, 36.0, 1e-6);
}

TEST(ReducePhase, MoreReducersShardTheWork) {
  const cluster::Cluster cl = bare_cluster(4);
  std::vector<cluster::NodeIndex> winners;
  for (int i = 0; i < 16; ++i) winners.push_back(i % 4);
  ReduceConfig base;
  base.output_ratio = 0.25;
  base.seed = 9;
  base.reducers = 1;
  ReducePhaseSimulation one(cl, winners, base);
  base.reducers = 4;
  ReducePhaseSimulation four(cl, winners, base);
  EXPECT_GT(one.run().elapsed, four.run().elapsed);
}

TEST(ReducePhase, SourceOutageStallsThenOriginRescues) {
  cluster::Cluster cl = bare_cluster(2);
  cl.nodes[0].mode = cluster::AvailabilityMode::kReplay;
  cl.nodes[0].down_intervals = {{0.0, 1e5}};  // gone for good
  ReduceConfig config;
  config.reducers = 1;
  config.output_ratio = 1.0;
  config.gamma_reduce = 5.0;
  config.reissue_delay = 40.0;
  config.replay_offsets.assign(cl.size(), 0.0);
  config.replay_horizon = 2e5;
  config.seed = 11;
  // Output on node 0 (down); reducer must land on node 1 and eventually
  // take the partition from the origin.
  ReducePhaseSimulation sim(cl, {0}, config);
  const ReduceResult r = sim.run();
  EXPECT_EQ(r.origin_refetches, 1u);
  const double transfer = common::transfer_time(64 * kMiB, mbps(8));
  EXPECT_NEAR(r.elapsed, 40.0 + transfer + 5.0, 6.0);
}

TEST(ReducePhase, ReducerHostDeathReassigns) {
  cluster::Cluster cl = bare_cluster(2);
  cl.nodes[1].mode = cluster::AvailabilityMode::kReplay;
  cl.nodes[1].down_intervals = {{10.0, 1e5}};
  ReduceConfig config;
  config.reducers = 2;
  config.output_ratio = 1.0;
  config.gamma_reduce = 100.0;  // long enough to be caught by the outage
  config.replay_offsets.assign(cl.size(), 0.0);
  config.replay_horizon = 2e5;
  config.seed = 13;
  ReducePhaseSimulation sim(cl, {0, 0}, config);
  const ReduceResult r = sim.run();
  // Whichever reducer started on node 1 was killed at t=10 and
  // reassigned to node 0.
  EXPECT_GE(r.reducer_reassignments, 1u);
  EXPECT_EQ(r.reducers, 2u);
}

TEST(ReducePhase, AvailabilityAwarePlacementAvoidsBadHosts) {
  cluster::Cluster cl = bare_cluster(3);
  ReduceConfig config;
  config.reducers = 30;
  config.output_ratio = 0.1;
  config.gamma_reduce = 1.0;
  config.availability_aware = true;
  config.params = {{0.0, 0.0}, {0.0, 0.0}, {0.3, 3.0}};  // node 2: rho 0.9
  config.gamma_map = 6.0;
  config.seed = 17;
  ReducePhaseSimulation sim(cl, {0, 1}, config);
  // Smoke: runs to completion despite the skewed weights.
  const ReduceResult r = sim.run();
  EXPECT_EQ(r.reducers, 30u);
}

TEST(ReducePhase, Validation) {
  const cluster::Cluster cl = bare_cluster(2);
  ReduceConfig config;
  EXPECT_THROW(ReducePhaseSimulation(cl, {}, config),
               std::invalid_argument);
  config.output_ratio = 0.0;
  EXPECT_THROW(ReducePhaseSimulation(cl, {0}, config),
               std::invalid_argument);
  config.output_ratio = 1.0;
  config.availability_aware = true;  // but params missing
  EXPECT_THROW(ReducePhaseSimulation(cl, {0}, config),
               std::invalid_argument);
}

}  // namespace
