// Churn & recovery: dead-node declaration, the re-replication pipeline,
// structured data-loss reports and graceful termination when nodes
// depart permanently mid-job.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cluster/network.h"
#include "cluster/node_mask.h"
#include "cluster/topology.h"
#include "hdfs/namenode.h"
#include "obs/trace.h"
#include "placement/random_policy.h"
#include "sim/mapreduce_sim.h"
#include "sim/rereplication.h"

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
  for (std::size_t b = 0; b < replicas.size(); ++b) {
    const hdfs::BlockId block = nn.file(id).blocks[b];
    const auto old_replicas = nn.block(block).replicas;
    for (const auto node : old_replicas) nn.remove_replica(block, node);
    for (const auto node : replicas[b]) nn.add_replica(block, node);
  }
  return id;
}

// With no retry budget, a copy whose destination goes down mid-flight
// is given up. Giving up must release the block: enqueue ignores
// tracked blocks, so a block still tracked could never be repaired.
TEST(ReReplicator, GiveUpReleasesTheBlockForALaterRepair) {
  constexpr std::uint64_t kBlockBytes = 8 * kMiB;  // 8.4 s at 8 Mb/s
  EventQueue queue;
  hdfs::NameNode nn(2);
  cluster::Network::Config net;
  net.uplink_bps.assign(2, mbps(8));
  net.downlink_bps.assign(2, mbps(8));
  cluster::Network network(net);
  cluster::NodeMask up(2, /*value=*/true);
  obs::EventTracer tracer;
  ReReplicator::Config config;
  config.max_retries = 0;
  ReReplicator rr(queue, nn, network, kBlockBytes, config, common::Rng(5),
                  up);
  rr.set_policy(placement::make_random_policy(2));
  rr.set_tracer(&tracer);

  // Replication 2 with one holder left: node 1 is the only destination.
  const hdfs::BlockId block = nn.file(plant_file(nn, {{0, 1}})).blocks[0];
  nn.remove_replica(block, 1);
  rr.enqueue(block);
  EXPECT_EQ(rr.stats().started, 1u);
  queue.schedule(2.0, [&] {
    up.reset(1);
    rr.on_node_down(1);
  });
  queue.run_until([] { return false; });
  EXPECT_EQ(rr.stats().giveups, 1u);
  EXPECT_EQ(rr.stats().landed, 0u);
  EXPECT_TRUE(rr.idle());
  std::size_t giveup_records = 0;
  for (const obs::TraceRecord& r : tracer.take_records()) {
    if (r.type == obs::EventType::kRereplicationGiveup) ++giveup_records;
  }
  EXPECT_EQ(giveup_records, 1u);

  // The destination returns and the block is enqueued again: a new copy
  // starts and lands.
  up.set(1);
  rr.enqueue(block);
  EXPECT_EQ(rr.stats().started, 2u);
  queue.run_until([] { return false; });
  EXPECT_EQ(rr.stats().landed, 1u);
  EXPECT_EQ(nn.block(block).replicas.size(), 2u);
}

// Blocks queue while their holders are down. Behind the queue's back the
// NameNode refills one and loses the last replica of another; the next
// drain must drop both in one pass, release them for a later enqueue,
// and start the lowest-id block among those with the fewest replicas.
TEST(ReReplicator, DrainDropsRefilledAndLostBlocksInOnePass) {
  EventQueue queue;
  hdfs::NameNode nn(6);
  cluster::Network::Config net;
  net.uplink_bps.assign(6, mbps(8));
  net.downlink_bps.assign(6, mbps(8));
  cluster::Network network(net);
  cluster::NodeMask up(6, /*value=*/true);
  obs::EventTracer tracer;
  ReReplicator::Config config;
  config.max_concurrent = 1;
  ReReplicator rr(queue, nn, network, 8 * kMiB, config, common::Rng(5), up);
  rr.set_policy(placement::make_random_policy(6));
  rr.set_tracer(&tracer);

  // Replication 3. Holders: b0 {0}, b1 {1}, b2 {1, 0}, b3 {1}, b4 {1, 0},
  // b5 {1}. Nodes 0 and 1 are down, so no block has a source.
  const hdfs::FileId file = plant_file(
      nn, {{0, 2, 3}, {1, 2, 3}, {1, 0, 2}, {1, 2, 3}, {1, 0, 2}, {1, 2, 3}});
  const std::vector<hdfs::BlockId>& b = nn.file(file).blocks;
  for (const hdfs::BlockId block : b) {
    for (const cluster::NodeIndex n : {2, 3}) {
      if (nn.block(block).hosted_on(n)) nn.remove_replica(block, n);
    }
  }
  up.reset(0);
  up.reset(1);
  for (const hdfs::BlockId block : b) rr.enqueue(block);
  EXPECT_EQ(rr.stats().started, 0u);
  ASSERT_EQ(rr.backlog(), 6u);

  nn.add_replica(b[0], 2);  // refilled to 3
  nn.add_replica(b[0], 3);
  nn.remove_replica(b[1], 1);  // lost
  up.set(1);
  rr.on_node_up(1);
  // b0 and b1 left; b3 moved from waiting to in flight.
  EXPECT_EQ(rr.backlog(), 4u);
  ASSERT_EQ(rr.stats().started, 1u);
  std::vector<hdfs::BlockId> starts;
  for (const obs::TraceRecord& r : tracer.take_records()) {
    if (r.type == obs::EventType::kRereplicationStart) starts.push_back(r.task);
  }
  // b2 and b4 have two replicas; b3 and b5 one, and b3 has the lower id.
  EXPECT_EQ(starts, std::vector<hdfs::BlockId>{b[3]});

  // The refilled block was released: a fresh loss queues it again.
  nn.remove_replica(b[0], 2);
  rr.enqueue(b[0]);
  EXPECT_EQ(rr.backlog(), 5u);
}

// Node 0 holds one replica of three blocks and leaves for good at t=30.
// Detection (3 s x 2 misses) + dead_timeout 20 declares it dead at ~56;
// the pipeline must restore every dropped replica on the survivors and
// the job must finish with zero loss.
TEST(Churn, DeadNodeReplicasAreReReplicated) {
  Cluster cluster = bare_cluster(4);
  cluster.block_size_bytes = 8 * kMiB;  // ~8.4 s per repair at 8 Mb/s
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{30.0, 9e5}};
  hdfs::NameNode nn(4);
  const auto file = plant_file(nn, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  SimJobConfig config;
  config.gamma = 40.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.replay_horizon = 1e6;
  config.allow_origin_fetch = false;
  config.churn.enabled = true;
  config.churn.heartbeat_interval = 3.0;
  config.churn.dead_timeout = 20.0;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.failure, "");
  EXPECT_EQ(r.nodes_dead, 1u);
  EXPECT_EQ(r.replicas_dropped, 3u);
  EXPECT_EQ(r.blocks_lost, 0u);
  EXPECT_EQ(r.tasks_lost, 0u);
  EXPECT_TRUE(r.lost_blocks.empty());
  EXPECT_GE(r.rereplications, 1u);
  EXPECT_GT(r.rereplication_bytes, 0u);
  EXPECT_GE(r.max_under_replicated, 1u);
  // The dead node's replicas were written off and none came back to it.
  EXPECT_TRUE(nn.is_dead(0));
  for (const hdfs::BlockId block : nn.file(file).blocks) {
    const auto& replicas = nn.block(block).replicas;
    EXPECT_GE(replicas.size(), 1u);
    for (const auto node : replicas) EXPECT_NE(node, 0u);
  }
}

// With the pipeline off and origin fetch disabled, losing the only
// replica of a block is unrecoverable: the job must terminate with a
// structured data-loss report instead of hanging.
TEST(Churn, PipelineOffAndOriginOffReportsDataLoss) {
  Cluster cluster = bare_cluster(2);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{2.0, 9e5}};
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}, {1}, {1}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.replay_horizon = 1e6;
  config.allow_origin_fetch = false;
  config.scheduler.speculation = false;
  config.churn.enabled = true;
  config.churn.heartbeat_interval = 1.0;
  config.churn.dead_timeout = 5.0;
  config.churn.rereplication.enabled = false;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.failure, "data_loss");
  EXPECT_EQ(r.nodes_dead, 1u);
  EXPECT_EQ(r.blocks_lost, 1u);
  EXPECT_EQ(r.tasks_lost, 1u);
  ASSERT_EQ(r.lost_blocks.size(), 1u);
  EXPECT_EQ(r.lost_blocks[0].task, 0u);
  EXPECT_EQ(r.lost_blocks[0].block, nn.file(file).blocks[0]);
  EXPECT_EQ(r.rereplications, 0u);
  // The healthy node's tasks still completed.
  EXPECT_EQ(r.local_wins, 2u);
}

// Same loss scenario, but the origin copy is reachable: the written-off
// block is recoverable, so the job degrades to an origin re-fetch
// instead of failing.
TEST(Churn, OriginFetchRescuesWrittenOffBlock) {
  Cluster cluster = bare_cluster(2);
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{2.0, 9e5}};
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}, {1}, {1}});
  SimJobConfig config;
  config.gamma = 10.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.replay_horizon = 1e6;
  config.allow_origin_fetch = true;
  config.churn.enabled = true;
  config.churn.heartbeat_interval = 1.0;
  config.churn.dead_timeout = 5.0;
  config.churn.rereplication.enabled = false;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.tasks_lost, 0u);
  EXPECT_EQ(r.blocks_lost, 1u);  // written off, but recoverable
  EXPECT_GE(r.origin_wins, 1u);
}

// A node declared dead that later returns is resurrected: it rejoins
// the cluster (and the re-replication destination pool) even though its
// written-off replicas stay gone.
TEST(Churn, DeadNodeThatReturnsIsResurrected) {
  Cluster cluster = bare_cluster(3);
  cluster.block_size_bytes = 8 * kMiB;
  cluster.nodes[0].mode = AvailabilityMode::kReplay;
  cluster.nodes[0].down_intervals = {{10.0, 120.0}};
  hdfs::NameNode nn(3);
  const auto file = plant_file(nn, {{0, 1}, {0, 2}, {1, 2}, {1, 2}});
  SimJobConfig config;
  config.gamma = 80.0;
  config.replay_offsets.assign(cluster.size(), 0.0);
  config.replay_horizon = 1e6;
  config.allow_origin_fetch = false;
  config.churn.enabled = true;
  config.churn.heartbeat_interval = 3.0;
  config.churn.dead_timeout = 30.0;  // declared at ~46, back at 120
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.nodes_dead, 1u);
  EXPECT_EQ(r.nodes_resurrected, 1u);
  EXPECT_EQ(r.tasks_lost, 0u);
  EXPECT_FALSE(nn.is_dead(0));
}

// A correlated burst that takes out every node leaves no survivor to
// finish (or even re-fetch) the remaining work: the run must drain its
// event queue and report no_live_nodes rather than spin forever.
TEST(Churn, AllNodesDepartingReportsNoLiveNodes) {
  const Cluster cluster = bare_cluster(2);
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}, {1}});
  SimJobConfig config;
  config.gamma = 100.0;
  config.allow_origin_fetch = true;  // recoverable, yet nobody to fetch
  config.churn.enabled = true;
  config.churn.burst_at = 5.0;
  config.churn.burst_fraction = 1.0;
  config.churn.heartbeat_interval = 1.0;
  config.churn.dead_timeout = 5.0;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.failure, "no_live_nodes");
  EXPECT_EQ(r.nodes_departed, 2u);
  EXPECT_EQ(r.nodes_dead, 2u);
  EXPECT_EQ(r.tasks_lost, 2u);
  EXPECT_EQ(r.lost_blocks.size(), 2u);
}

// Hazard-driven departures below the pipeline's capacity: across seeds,
// every run terminates and satisfies the loss invariants; a run only
// fails when it actually lost tasks or every node left.
TEST(Churn, HazardDeparturesBelowCapacityCompleteWithoutLoss) {
  Cluster cluster = bare_cluster(12);
  cluster.block_size_bytes = 8 * kMiB;
  std::vector<std::vector<cluster::NodeIndex>> layout;
  for (cluster::NodeIndex b = 0; b < 12; ++b) {
    layout.push_back({b, static_cast<cluster::NodeIndex>((b + 1) % 12)});
  }
  int failures = 0;
  for (std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    hdfs::NameNode nn(12);
    const auto file = plant_file(nn, layout);
    SimJobConfig config;
    config.gamma = 25.0;
    config.allow_origin_fetch = false;
    config.seed = seed;
    config.churn.enabled = true;
    config.churn.departure_rate = 1.0 / 600.0;  // per-node hazard
    config.churn.heartbeat_interval = 2.0;
    config.churn.dead_timeout = 10.0;
    MapReduceSimulation sim(cluster, nn, file, config);
    const JobResult r = sim.run();
    if (r.failed) {
      ++failures;
      EXPECT_TRUE(r.failure == "data_loss" || r.failure == "no_live_nodes");
      EXPECT_GT(r.tasks_lost, 0u);
    } else {
      EXPECT_EQ(r.tasks_lost, 0u);
      EXPECT_TRUE(r.lost_blocks.empty());
    }
    EXPECT_EQ(r.lost_blocks.size(), r.tasks_lost);
    EXPECT_GE(r.nodes_departed, r.nodes_dead - r.nodes_resurrected);
  }
  // Replication 2 with a gentle hazard: most seeds must survive.
  EXPECT_LE(failures, 1);
}

// Same seed, same config: the full result — counters and clock — is
// reproduced exactly.
TEST(Churn, SameSeedReproducesResultExactly) {
  std::vector<std::vector<cluster::NodeIndex>> layout = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}};
  auto run_once = [&layout] {
    Cluster cluster = bare_cluster(4);
    cluster.block_size_bytes = 8 * kMiB;
    hdfs::NameNode nn(4);
    const auto file = plant_file(nn, layout);
    SimJobConfig config;
    config.gamma = 20.0;
    config.allow_origin_fetch = false;
    config.seed = 42;
    config.churn.enabled = true;
    config.churn.departure_rate = 1.0 / 300.0;
    config.churn.burst_at = 35.0;
    config.churn.burst_fraction = 0.25;
    config.churn.heartbeat_interval = 2.0;
    config.churn.dead_timeout = 15.0;
    MapReduceSimulation sim(cluster, nn, file, config);
    return sim.run();
  };
  const JobResult a = run_once();
  const JobResult b = run_once();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.nodes_departed, b.nodes_departed);
  EXPECT_EQ(a.nodes_dead, b.nodes_dead);
  EXPECT_EQ(a.nodes_resurrected, b.nodes_resurrected);
  EXPECT_EQ(a.replicas_dropped, b.replicas_dropped);
  EXPECT_EQ(a.blocks_lost, b.blocks_lost);
  EXPECT_EQ(a.tasks_lost, b.tasks_lost);
  EXPECT_EQ(a.rereplications, b.rereplications);
  EXPECT_EQ(a.rereplication_retries, b.rereplication_retries);
  EXPECT_EQ(a.rereplication_giveups, b.rereplication_giveups);
  EXPECT_EQ(a.rereplication_bytes, b.rereplication_bytes);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// Late joiners start absent and enter the cluster at join_at; they can
// host re-replicas once they arrive.
TEST(Churn, LateJoinerEntersCluster) {
  Cluster cluster = bare_cluster(3);
  cluster.block_size_bytes = 8 * kMiB;
  hdfs::NameNode nn(3);
  const auto file = plant_file(nn, {{0, 1}, {0, 1}, {0, 1}, {0, 1}});
  SimJobConfig config;
  config.gamma = 30.0;
  config.allow_origin_fetch = false;
  config.churn.enabled = true;
  config.churn.join_at = {0.0, 0.0, 25.0};  // node 2 joins at t=25
  config.churn.heartbeat_interval = 2.0;
  config.churn.dead_timeout = 100.0;
  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.tasks_lost, 0u);
}

// Config validation: churn needs a positive dead timeout.
TEST(Churn, ConfigValidation) {
  const Cluster cluster = bare_cluster(2);
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0}, {1}});
  SimJobConfig config;
  config.churn.enabled = true;
  config.churn.dead_timeout = 0.0;
  EXPECT_THROW(MapReduceSimulation(cluster, nn, file, config),
               std::invalid_argument);
}

}  // namespace
