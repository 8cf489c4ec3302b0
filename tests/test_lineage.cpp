// Causal lineage index: root-cause classification taxonomy, holder-set
// accounting, streaming (ring-independent) accumulation, the online ==
// offline rebuild contract, and byte-identical export across worker
// thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "core/adapt.h"
#include "obs/lineage.h"
#include "obs/trace.h"
#include "runner/runner.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

obs::TraceRecord rec(double t, obs::EventType type, std::uint32_t task,
                     std::uint32_t node = 0, std::uint32_t aux = 0,
                     std::uint32_t peer = 0) {
  obs::TraceRecord r;
  r.t = t;
  r.type = type;
  r.task = task;
  r.node = node;
  r.aux = aux;
  r.peer = peer;
  return r;
}

TEST(Lineage, ClassifiesCorruptionWithoutSurvivor) {
  // The block's only copy is removed by a checksum catch, then the
  // zero-replica event lands: corruption is the most specific evidence.
  const std::vector<obs::TraceRecord> records = {
      rec(1.0, obs::EventType::kPlacement, 0, 1),
      rec(2.0, obs::EventType::kReplicaCorrupt, 0, 1),
      rec(3.0, obs::EventType::kCorruptRead, 0, 1, /*path=*/2),
      rec(3.0, obs::EventType::kReplicaLost, 0, 0, /*recoverable=*/0),
  };
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::BlockLineage* b = obs::find_block(snap, 0);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->lost);
  EXPECT_DOUBLE_EQ(b->lost_at, 3.0);
  EXPECT_EQ(obs::classify_loss(*b), obs::LossCause::kCorruptionNoSurvivor);
}

TEST(Lineage, ClassifiesFalsePositiveWriteoff) {
  // One holder was written off while actually up (aux = 1): the
  // partition-induced false positive outranks plain retry exhaustion.
  const std::vector<obs::TraceRecord> records = {
      rec(1.0, obs::EventType::kPlacement, 5, 1),
      rec(1.0, obs::EventType::kPlacement, 5, 2),
      rec(10.0, obs::EventType::kReplicaWriteoff, 5, 1, /*false_pos=*/1),
      rec(11.0, obs::EventType::kReplicaWriteoff, 5, 2, 0),
      rec(11.0, obs::EventType::kReplicaLost, 5, 0, 0),
  };
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::BlockLineage* b = obs::find_block(snap, 5);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->lost);
  EXPECT_TRUE(b->false_writeoff);
  EXPECT_EQ(obs::classify_loss(*b), obs::LossCause::kFalsePositiveWriteoff);
}

TEST(Lineage, ClassifiesRetryExhaustion) {
  // Repair ran (start, retry, give-up) but never landed a copy.
  const std::vector<obs::TraceRecord> records = {
      rec(1.0, obs::EventType::kPlacement, 2, 1),
      rec(10.0, obs::EventType::kReplicaWriteoff, 2, 1, 0),
      rec(10.0, obs::EventType::kRereplicationStart, 2, 3, /*attempt=*/1),
      rec(15.0, obs::EventType::kRereplicationRetry, 2, 0, 2),
      rec(20.0, obs::EventType::kRereplicationGiveup, 2, 0, 2),
      rec(20.0, obs::EventType::kReplicaLost, 2, 0, 0),
  };
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::BlockLineage* b = obs::find_block(snap, 2);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->lost);
  EXPECT_TRUE(b->repair_attempted);
  EXPECT_TRUE(b->repair_gaveup);
  EXPECT_EQ(obs::classify_loss(*b), obs::LossCause::kRetryExhaustion);
}

TEST(Lineage, ClassifiesAllHoldersDeadWithinWindow) {
  // Every holder written off with no repair ever reserved: the whole
  // replica set died inside one detection window.
  const std::vector<obs::TraceRecord> records = {
      rec(1.0, obs::EventType::kPlacement, 7, 1),
      rec(1.0, obs::EventType::kPlacement, 7, 2),
      rec(30.0, obs::EventType::kReplicaWriteoff, 7, 1, 0),
      rec(30.0, obs::EventType::kReplicaWriteoff, 7, 2, 0),
      rec(30.0, obs::EventType::kReplicaLost, 7, 0, 0),
  };
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::BlockLineage* b = obs::find_block(snap, 7);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->lost);
  EXPECT_EQ(obs::classify_loss(*b),
            obs::LossCause::kAllHoldersDeadWithinWindow);
  const obs::LossReport report = obs::post_mortem(snap);
  EXPECT_EQ(report.total, 1u);
  ASSERT_EQ(report.losses.size(), 1u);
  EXPECT_EQ(report.losses[0].writeoffs, 2u);
  EXPECT_EQ(report.losses[0].repair_attempts, 0u);
}

TEST(Lineage, RecoveryClearsTheLossVerdict) {
  // A landed repair voids a standing zero-replica verdict; the echoed
  // placement for the same holder must not create a duplicate hop.
  const std::vector<obs::TraceRecord> records = {
      rec(1.0, obs::EventType::kPlacement, 0, 1),
      rec(10.0, obs::EventType::kReplicaWriteoff, 0, 1, 0),
      rec(10.0, obs::EventType::kReplicaLost, 0, 0, 0),
      rec(12.0, obs::EventType::kRereplicationDone, 0, /*dst=*/3, 0,
          /*src=*/2),
      rec(12.0, obs::EventType::kPlacement, 0, 3),  // board echo
      rec(50.0, obs::EventType::kAttemptFinish, 0, 3),
      rec(60.0, obs::EventType::kJobEnd, 0),
  };
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::BlockLineage* b = obs::find_block(snap, 0);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->lost);
  ASSERT_EQ(b->holders.size(), 1u);
  EXPECT_EQ(b->holders[0], 3u);
  // placed(1), writeoff(1), lost, rereplicated(3) — no echoed "placed".
  ASSERT_EQ(b->steps.size(), 4u);
  EXPECT_EQ(b->steps[3].kind, obs::LineageStepKind::kRereplicated);
  EXPECT_EQ(obs::post_mortem(snap).total, 0u);
}

TEST(Lineage, EndStateVerdictCoversShutdownWithoutLossEvents) {
  // The no-live-nodes shutdown writes tasks off without a zero-replica
  // event; the snapshot's end-state pass must still call the block lost
  // because its only holder ended the run down and the task is undone.
  const std::vector<obs::TraceRecord> records = {
      rec(1.0, obs::EventType::kPlacement, 0, 1),
      rec(5.0, obs::EventType::kNodeDown, 0, 1),
      rec(9.0, obs::EventType::kJobEnd, 0),
  };
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::BlockLineage* b = obs::find_block(snap, 0);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->lost);
  EXPECT_DOUBLE_EQ(b->lost_at, 9.0);
  EXPECT_EQ(obs::classify_loss(*b),
            obs::LossCause::kAllHoldersDeadWithinWindow);

  // Same chain, but the task finished before the node went down: a
  // finished task cannot lose its input.
  std::vector<obs::TraceRecord> done = records;
  done.insert(done.begin() + 1,
              rec(4.0, obs::EventType::kAttemptFinish, 0, 1));
  const obs::LineageSnapshot snap2 = obs::build_lineage(done);
  const obs::BlockLineage* b2 = obs::find_block(snap2, 0);
  ASSERT_NE(b2, nullptr);
  EXPECT_FALSE(b2->lost);
}

TEST(Lineage, TracksAttemptTreeWithStallsAndKills) {
  std::vector<obs::TraceRecord> records;
  obs::TraceRecord a0 = rec(1.0, obs::EventType::kAttemptStart, 4, 2, 0, 9);
  a0.ticket = 100;
  obs::TraceRecord a1 = rec(2.0, obs::EventType::kAttemptStart, 4, 3,
                            /*dup=*/1, 9);
  a1.ticket = 101;
  obs::TraceRecord stall = rec(2.5, obs::EventType::kTransferStall, 4);
  stall.ticket = 100;
  obs::TraceRecord kill = rec(3.0, obs::EventType::kAttemptKill, 4, 2);
  kill.reason = obs::TraceReason::kSourceTimeout;
  records = {a0, a1, stall, kill,
             rec(4.0, obs::EventType::kAttemptFinish, 4, 3),
             rec(5.0, obs::EventType::kTaskPark, 4)};
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::TaskLineage* t = obs::find_task(snap, 4);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->done);
  EXPECT_DOUBLE_EQ(t->done_at, 4.0);
  EXPECT_EQ(t->parks, 1u);
  ASSERT_EQ(t->attempts.size(), 2u);
  EXPECT_FALSE(t->attempts[0].speculative);
  EXPECT_EQ(t->attempts[0].stalls, 1u);
  EXPECT_TRUE(t->attempts[0].killed);
  EXPECT_EQ(t->attempts[0].kill_reason, obs::TraceReason::kSourceTimeout);
  EXPECT_TRUE(t->attempts[1].speculative);
  EXPECT_TRUE(t->attempts[1].finished);
  const std::string text = obs::describe_task(*t);
  EXPECT_NE(text.find("[dup]"), std::string::npos);
  EXPECT_NE(text.find("killed"), std::string::npos);
}

TEST(Lineage, BoundedStateCountsTruncation) {
  std::vector<obs::TraceRecord> records = {
      rec(0.0, obs::EventType::kPlacement, 0, 1)};
  // Alternate restore/writeoff far past the per-block cap.
  for (std::uint32_t i = 0; i < 200; ++i) {
    const bool off = i % 2 == 0;
    records.push_back(rec(1.0 + i,
                          off ? obs::EventType::kReplicaWriteoff
                              : obs::EventType::kReplicaRestore,
                          0, 1, 0));
  }
  const obs::LineageSnapshot snap = obs::build_lineage(records);
  const obs::BlockLineage* b = obs::find_block(snap, 0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->steps.size(), obs::LineageIndex::kMaxStepsPerBlock);
  EXPECT_GT(b->truncated_steps, 0u);
  EXPECT_NE(obs::describe_block(*b).find("truncated"), std::string::npos);
}

TEST(Lineage, InfiniteQuoteRendersUnbounded) {
  // A node with lambda * mu >= 1 quotes E[T] = +inf. The trace writes
  // that quote as null and the parser reads it back as +inf, which the
  // chain must print as unbounded rather than as a number.
  obs::TraceRecord finite = rec(1.0, obs::EventType::kPlacement, 0, 1);
  finite.v0 = 12.5;
  obs::TraceRecord unbounded =
      rec(1.0, obs::EventType::kPlacement, 0, 2, /*replica=*/1);
  unbounded.v0 = std::numeric_limits<double>::infinity();
  obs::RunObservations run;
  run.records = {finite, unbounded};
  const std::vector<obs::RunObservations> parsed =
      obs::parse_jsonl(obs::to_jsonl({run}));
  ASSERT_EQ(parsed.size(), 1u);
  const obs::LineageSnapshot snap = obs::build_lineage(parsed[0].records);
  const obs::BlockLineage* b = obs::find_block(snap, 0);
  ASSERT_NE(b, nullptr);
  const std::string text = obs::describe_block(*b);
  EXPECT_NE(text.find("on node 1 (replica 0) quote 12.500s"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("on node 2 (replica 1) quote unbounded"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

// --- integration: real churn runs through run_experiment -------------

core::ExperimentConfig burst_config(const cluster::Cluster& cl,
                                    std::uint64_t seed, bool rereplication) {
  const workload::Workload w = workload::emulation_workload();
  core::ExperimentConfig config;
  config.blocks = w.blocks_for(cl.size());
  config.job.gamma = w.gamma();
  config.policy = core::PolicyKind::kAdapt;
  config.replication = 2;
  config.seed = seed;
  config.job.allow_origin_fetch = false;
  config.job.churn.enabled = true;
  config.job.churn.burst_at = 5.0;
  config.job.churn.burst_fraction = 0.6;
  config.job.churn.heartbeat_interval = 3.0;
  config.job.churn.dead_timeout = 10.0;
  config.job.churn.rereplication.enabled = rereplication;
  config.obs.lineage = true;
  return config;
}

cluster::Cluster burst_cluster() {
  cluster::EmulationConfig emu;
  emu.node_count = 32;
  return cluster::emulated_cluster(emu);
}

TEST(Lineage, ClassifiesEveryLostBlockOfABurstRun) {
  // A correlated burst with origin fetch off loses real data. Every
  // lost block must classify into the taxonomy (unclassified == 0) and
  // the post-mortem total must tie out with the job's own accounting.
  const cluster::Cluster cl = burst_cluster();
  const core::ExperimentConfig config = burst_config(cl, 11, true);
  const core::ExperimentResult result = core::run_experiment(cl, config);

  ASSERT_NE(result.obs.lineage, nullptr);
  ASSERT_FALSE(result.job.lost_blocks.empty());
  const obs::LossReport report = obs::post_mortem(*result.obs.lineage);
  EXPECT_EQ(report.total, result.job.lost_blocks.size());
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                obs::LossCause::kUnclassified)],
            0u);
  for (const sim::JobResult::LostBlock& lb : result.job.lost_blocks) {
    const obs::BlockLineage* b = obs::find_block(*result.obs.lineage,
                                                 lb.block);
    ASSERT_NE(b, nullptr) << "block " << lb.block;
    EXPECT_TRUE(b->lost) << "block " << lb.block;
  }
}

TEST(Lineage, DetectionWindowWipeoutDominatesUnderBursts) {
  // With the repair pipeline off nothing can start a repair, so every
  // burst loss is an all-holders-dead-within-window wipeout.
  const cluster::Cluster cl = burst_cluster();
  const core::ExperimentConfig config = burst_config(cl, 11, false);
  const core::ExperimentResult result = core::run_experiment(cl, config);

  ASSERT_NE(result.obs.lineage, nullptr);
  const obs::LossReport report = obs::post_mortem(*result.obs.lineage);
  ASSERT_GT(report.total, 0u);
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                obs::LossCause::kAllHoldersDeadWithinWindow)],
            report.total);
}

TEST(Lineage, OnlineIndexMatchesOfflineRebuild) {
  const cluster::Cluster cl = burst_cluster();
  core::ExperimentConfig config = burst_config(cl, 13, true);
  config.obs.trace = true;  // keep the records for the offline rebuild
  const core::ExperimentResult result = core::run_experiment(cl, config);

  ASSERT_NE(result.obs.lineage, nullptr);
  ASSERT_EQ(result.obs.dropped, 0u);
  obs::RunObservations online = result.obs;
  obs::RunObservations offline = result.obs;
  offline.lineage = nullptr;  // forces the rebuild path
  EXPECT_EQ(obs::lineage_to_jsonl({online}), obs::lineage_to_jsonl({offline}));
}

TEST(Lineage, StreamingIndexIsRingIndependent) {
  // With a 16-slot ring almost every record is overwritten, yet the
  // online lineage must match the full-ring run exactly: the sink sees
  // each record before the ring does.
  const cluster::Cluster cl = burst_cluster();
  core::ExperimentConfig big = burst_config(cl, 17, true);
  big.obs.trace = true;
  core::ExperimentConfig tiny = big;
  tiny.obs.ring_capacity = 16;

  const core::ExperimentResult full = core::run_experiment(cl, big);
  const core::ExperimentResult small = core::run_experiment(cl, tiny);
  ASSERT_NE(full.obs.lineage, nullptr);
  ASSERT_NE(small.obs.lineage, nullptr);
  EXPECT_EQ(full.obs.dropped, 0u);
  EXPECT_GT(small.obs.dropped, 0u);

  obs::RunObservations a;
  a.lineage = full.obs.lineage;
  obs::RunObservations b;
  b.lineage = small.obs.lineage;
  EXPECT_EQ(obs::lineage_to_jsonl({a}), obs::lineage_to_jsonl({b}));
}

TEST(Lineage, ExportIsByteIdenticalAcrossThreadCounts) {
  const cluster::Cluster cl = burst_cluster();
  const core::ExperimentConfig config = burst_config(cl, 19, true);

  runner::ExperimentRunner serial(1);
  runner::ExperimentRunner pooled(4);
  std::vector<obs::RunObservations> obs_serial;
  std::vector<obs::RunObservations> obs_pooled;
  (void)serial.run_replications(cl, config, 4, &obs_serial);
  (void)pooled.run_replications(cl, config, 4, &obs_pooled);

  ASSERT_EQ(obs_serial.size(), 4u);
  ASSERT_EQ(obs_pooled.size(), 4u);
  ASSERT_NE(obs_serial[0].lineage, nullptr);
  const std::string a = obs::lineage_to_jsonl(obs_serial);
  const std::string b = obs::lineage_to_jsonl(obs_pooled);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The deterministic post-mortem rendering honors the same contract.
  EXPECT_EQ(obs::post_mortem_text(obs::post_mortem(*obs_serial[0].lineage)),
            obs::post_mortem_text(obs::post_mortem(*obs_pooled[0].lineage)));
}

}  // namespace
