// Chaos-invariant harness plus the two seeded gray-failure acceptance
// scenarios: a false-positive dead declaration (partitioned node that
// never went down) reviving cleanly, and a corrupt local read that
// recovers from the surviving replica and re-replicates back to target.
#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "hdfs/namenode.h"
#include "obs/replay.h"
#include "obs/trace.h"
#include "placement/random_policy.h"
#include "sim/chaos.h"
#include "sim/mapreduce_sim.h"

namespace {

using namespace adapt;
using namespace adapt::sim;
using cluster::Cluster;
using cluster::NodeSpec;
using common::kMiB;
using common::mbps;

Cluster bare_cluster(std::size_t n, double bps = mbps(8)) {
  Cluster cluster;
  cluster.block_size_bytes = 4 * kMiB;
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

// Twenty randomized fault schedules, each checked against the full
// invariant set (metadata consistency, loss honesty, accounting,
// byte-identical re-run). The aggregate counters prove the sweep
// actually exercised every gray path rather than passing vacuously.
TEST(Chaos, TwentyRandomSchedulesHoldInvariants) {
  ChaosConfig config;
  std::uint64_t false_dead = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t corrupt_reads = 0;
  std::uint64_t scanned = 0;
  std::uint64_t safe_entries = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    config.seed = seed;
    const ChaosReport report = run_chaos(config);
    for (const ChaosViolation& v : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v.invariant << ": "
                    << v.detail;
    }
    false_dead += report.job.false_dead_declarations;
    corrupted += report.job.replicas_corrupted;
    corrupt_reads += report.job.corrupt_reads;
    scanned += report.job.blocks_scanned;
    safe_entries += report.job.safe_mode_entries;
  }
  EXPECT_GE(false_dead, 1u);
  EXPECT_GE(corrupted, 1u);
  EXPECT_GE(corrupt_reads, 1u);
  EXPECT_GE(scanned, 1u);
  EXPECT_GE(safe_entries, 1u);
}

// Schedules where a node is declared dead while still up, with
// transfers in flight: a repair landing on the written-off node (46), a
// repair from it landing after its block was declared lost (111), a
// checksum catch on a written-off copy (2900, 8433), and stalled
// fetches outliving a return made while still declared (4478, 9881).
TEST(Chaos, FalsePositiveWriteoffReconcilesInFlightTransfers) {
  ChaosConfig config;
  for (const std::uint64_t seed : {46, 111, 2900, 8433, 4478, 9881}) {
    config.seed = seed;
    ChaosReport report;
    ASSERT_NO_THROW(report = run_chaos(config)) << "seed " << seed;
    EXPECT_GE(report.job.false_dead_declarations, 1u) << "seed " << seed;
    for (const ChaosViolation& v : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v.invariant << ": "
                    << v.detail;
    }
  }
}

// Node 0 is partitioned from the NameNode at t=4.5 while staying up the
// whole time. Lost beats cross the dead timeout, the NameNode falsely
// declares it dead and writes off its replicas; the first beat after
// the heal must revive it with its replicas restored and nothing lost.
TEST(Chaos, FalsePositiveDeadDeclarationRevivesCleanly) {
  Cluster cluster = bare_cluster(6);
  hdfs::NameNode nn(6);
  common::Rng place_rng(7);
  const auto file = nn.create_file(
      "f", 24, 2, placement::make_random_policy(6), place_rng);

  obs::EventTracer tracer;
  SimJobConfig config;
  config.gamma = 8.0;
  config.allow_origin_fetch = false;
  config.tracer = &tracer;
  config.churn.enabled = true;
  config.churn.heartbeat_interval = 1.0;
  config.churn.dead_timeout = 3.0;
  SimJobConfig::ChurnConfig::Partition part;
  part.at = 4.5;
  part.heal_at = 20.5;
  part.nodes = {0};
  config.churn.partitions.push_back(part);

  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.false_dead_declarations, 1u);
  EXPECT_EQ(r.blocks_lost, 0u);
  EXPECT_EQ(r.tasks_lost, 0u);
  // The node was never actually down and must be back in the pool.
  EXPECT_FALSE(nn.is_dead(0));
  for (const hdfs::BlockId block : nn.file(file).blocks) {
    const auto& replicas = nn.block(block).replicas;
    EXPECT_GE(replicas.size(), 1u);
    EXPECT_LE(replicas.size(), 2u);
  }

  const obs::ReplaySummary replay = obs::replay(tracer.take_records());
  EXPECT_EQ(replay.count(obs::EventType::kPartitionStart), 1u);
  EXPECT_EQ(replay.count(obs::EventType::kPartitionHeal), 1u);
  EXPECT_EQ(replay.count(obs::EventType::kNodeRevived), 1u);
  EXPECT_GE(replay.revived_replicas_restored + replay.revived_replicas_trimmed,
            1u);
}

// Both second-wave blocks carry a corrupt replica on node 0. Whichever
// task lands there fails its checksum on the local read, skips to the
// surviving replica on node 1, and re-replication restores the trimmed
// copy — the job finishes with zero loss and every block back at
// target replication.
TEST(Chaos, CorruptReadRecoversFromSurvivingReplica) {
  Cluster cluster = bare_cluster(2);
  hdfs::NameNode nn(2);
  const auto file = plant_file(nn, {{0, 1}, {0, 1}, {0, 1}, {0, 1}});

  obs::EventTracer tracer;
  SimJobConfig config;
  config.gamma = 10.0;
  config.scheduler.speculation = false;
  config.allow_origin_fetch = false;
  config.tracer = &tracer;
  config.churn.enabled = true;
  config.churn.heartbeat_interval = 1.0;
  config.churn.corruptions.push_back({2.0, 2, 0});
  config.churn.corruptions.push_back({2.5, 3, 0});

  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.replicas_corrupted, 2u);
  EXPECT_EQ(r.corrupt_reads, 1u);
  EXPECT_EQ(r.blocks_lost, 0u);
  EXPECT_EQ(r.tasks_lost, 0u);
  EXPECT_GE(r.rereplications, 1u);
  // The undetected corruption (its task ran on node 1) is still listed.
  EXPECT_EQ(r.corrupt_remaining.size(), 1u);
  for (const hdfs::BlockId block : nn.file(file).blocks) {
    EXPECT_EQ(nn.block(block).replicas.size(), 2u);
  }

  const obs::ReplaySummary replay = obs::replay(tracer.take_records());
  EXPECT_EQ(replay.count(obs::EventType::kReplicaCorrupt), 2u);
  EXPECT_EQ(replay.count(obs::EventType::kCorruptRead), 1u);
  EXPECT_EQ(replay.corrupt_reads_scan, 0u);
}

// Partitioning half the fleet trips the believed-dead fraction past the
// safe-mode threshold inside one detection window: the NameNode defers
// the mass write-off, the heal delivers beats that rescue every
// deferred node, and safe mode exits healed with no replicas dropped
// for the deferred set.
TEST(Chaos, SafeModeDefersMassWriteoffDuringPartition) {
  Cluster cluster = bare_cluster(12);
  hdfs::NameNode nn(12);
  // One holder inside the partitioned half, one outside, so the few
  // declarations that land before safe mode trips can never strand a
  // block with zero believed-live replicas.
  std::vector<std::vector<cluster::NodeIndex>> layout;
  for (cluster::NodeIndex b = 0; b < 36; ++b) {
    layout.push_back({b % 6, 6 + (b + 1) % 6});
  }
  const auto file = plant_file(nn, layout);

  obs::EventTracer tracer;
  SimJobConfig config;
  config.gamma = 10.0;
  config.allow_origin_fetch = false;
  config.tracer = &tracer;
  config.churn.enabled = true;
  config.churn.heartbeat_interval = 1.0;
  config.churn.dead_timeout = 3.0;
  config.churn.safe_mode_threshold = 0.25;
  config.churn.safe_mode_hold = 30.0;
  SimJobConfig::ChurnConfig::Partition part;
  part.at = 4.5;
  part.heal_at = 20.5;
  part.nodes = {0, 1, 2, 3, 4, 5};
  config.churn.partitions.push_back(part);

  MapReduceSimulation sim(cluster, nn, file, config);
  const JobResult r = sim.run();

  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.safe_mode_entries, 1u);
  // The first declarations land before the window fraction crosses the
  // threshold; everyone after is deferred, then rescued on the heal.
  EXPECT_GE(r.safe_mode_deferrals, 3u);
  EXPECT_EQ(r.safe_mode_rescues, r.safe_mode_deferrals);
  EXPECT_GE(r.false_dead_declarations, 1u);
  EXPECT_EQ(r.blocks_lost, 0u);
  for (cluster::NodeIndex n = 0; n < 6; ++n) EXPECT_FALSE(nn.is_dead(n));

  const obs::ReplaySummary replay = obs::replay(tracer.take_records());
  EXPECT_EQ(replay.count(obs::EventType::kSafeModeEnter), 1u);
  EXPECT_EQ(replay.count(obs::EventType::kSafeModeExit), 1u);
  EXPECT_EQ(replay.safe_mode_healed, 1u);
  EXPECT_EQ(replay.safe_mode_writeoffs, 0u);
}

}  // namespace
