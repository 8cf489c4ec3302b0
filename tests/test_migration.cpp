// Migration driver: data-before-metadata discipline over the bounded
// network — commits only after the transfer lands, retries on source
// death, redraws on destination death, budget-gated FIFO starts — plus
// the closed drift→rebalance loop at the simulation and job-stream
// levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "availability/predictor.h"
#include "cluster/network.h"
#include "cluster/node_mask.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "core/adapt.h"
#include "hdfs/namenode.h"
#include "obs/lineage.h"
#include "obs/trace.h"
#include "placement/random_policy.h"
#include "sim/event_queue.h"
#include "sim/migration.h"
#include "trace/generator.h"

namespace {

using namespace adapt;
using adapt::common::Rng;

constexpr std::uint64_t kBlockBytes = 8ull * 1024 * 1024;  // 8 s @ 1 MiB/s

struct DriverHarness {
  sim::EventQueue queue;
  hdfs::NameNode nn;
  cluster::Network net;
  cluster::NodeMask up;
  std::optional<sim::MigrationDriver> driver;

  explicit DriverHarness(std::size_t nodes,
                         sim::MigrationDriver::Config config = {})
      : nn(nodes), net(make_net(nodes)), up(nodes, /*value=*/true) {
    driver.emplace(queue, nn, net, kBlockBytes, config, Rng(99), up);
    driver->set_policy(placement::make_random_policy(nodes));
  }

  static cluster::Network make_net(std::size_t nodes) {
    cluster::Network::Config config;
    config.uplink_bps.assign(nodes, 1024.0 * 1024.0 * 8);  // 1 MiB/s
    config.downlink_bps.assign(nodes, 1024.0 * 1024.0 * 8);
    return cluster::Network(config);
  }

  // One single-replica block per entry of `holders`.
  std::vector<hdfs::BlockId> load(const std::vector<cluster::NodeIndex>&
                                      holders) {
    // Place deterministically by adding replicas to an empty file.
    Rng rng(7);
    const hdfs::FileId id = nn.create_file(
        "f", static_cast<std::uint32_t>(holders.size()), 1,
        placement::make_random_policy(nn.node_count()), rng);
    std::vector<hdfs::BlockId> blocks = nn.file(id).blocks;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const cluster::NodeIndex current = nn.block(blocks[i]).replicas[0];
      if (current != holders[i]) {
        nn.add_replica(blocks[i], holders[i]);
        nn.remove_replica(blocks[i], current);
      }
    }
    return blocks;
  }

  void submit(hdfs::BlockId block, cluster::NodeIndex from,
              cluster::NodeIndex to) {
    nn.begin_move(block, from, to);
    driver->submit({block, from, to});
  }

  void down_at(common::Seconds t, cluster::NodeIndex node) {
    queue.schedule(t, [this, node] {
      up.reset(node);
      driver->on_node_down(node);
    });
  }

  void up_at(common::Seconds t, cluster::NodeIndex node) {
    queue.schedule(t, [this, node] {
      up.set(node);
      driver->on_node_up(node);
    });
  }

  void run() {
    queue.run_until([] { return false; });
  }
};

TEST(MigrationDriver, CommitsOnlyAfterTransferCompletes) {
  DriverHarness h(4);
  const auto blocks = h.load({0});
  h.submit(blocks[0], 0, 2);
  // Mid-flight probe: the destination is the one pending target but
  // holds NO readable replica until the bytes have landed (t = 8 s
  // here).
  h.queue.schedule(4.0, [&] {
    EXPECT_EQ(h.nn.block(blocks[0]).replicas,
              std::vector<cluster::NodeIndex>{0});
    EXPECT_TRUE(h.nn.has_pending_move(blocks[0], 0, 2));
    EXPECT_EQ(h.nn.pending_moves().size(), 1u);
  });
  h.run();
  EXPECT_EQ(h.nn.block(blocks[0]).replicas,
            std::vector<cluster::NodeIndex>{2});
  EXPECT_TRUE(h.nn.pending_moves().empty());
  EXPECT_EQ(h.driver->stats().landed, 1u);
  EXPECT_EQ(h.driver->stats().bytes_moved, kBlockBytes);
  EXPECT_TRUE(h.driver->idle());
}

TEST(MigrationDriver, SourceDeathMidTransferRetriesFromAnotherHolder) {
  DriverHarness h(4);
  const auto blocks = h.load({0});
  h.nn.add_replica(blocks[0], 1);  // second holder to retry from
  h.submit(blocks[0], 0, 3);
  h.down_at(2.0, 0);  // kill the byte source mid-flight
  h.run();
  // The move still committed — re-sourced from holder 1 — and the
  // vacated holder's replica is gone.
  const std::vector<cluster::NodeIndex> expect = {1, 3};
  EXPECT_EQ(h.nn.block(blocks[0]).replicas, expect);
  EXPECT_EQ(h.driver->stats().landed, 1u);
  EXPECT_GE(h.driver->stats().retries, 1u);
  EXPECT_EQ(h.driver->stats().giveups, 0u);
}

TEST(MigrationDriver, DestinationDeathMidTransferRedrawsTarget) {
  DriverHarness h(4);
  const auto blocks = h.load({0});
  h.submit(blocks[0], 0, 2);
  h.down_at(2.0, 2);  // destination departs; node 2 never returns
  h.run();
  // The driver redrew a live destination (1 or 3) and committed there.
  ASSERT_EQ(h.nn.block(blocks[0]).replicas.size(), 1u);
  const cluster::NodeIndex landed = h.nn.block(blocks[0]).replicas[0];
  EXPECT_TRUE(landed == 1u || landed == 3u);
  EXPECT_TRUE(h.nn.pending_moves().empty());  // old move into 2 dropped
  EXPECT_GE(h.driver->move_stats().redraws, 1u);
  EXPECT_EQ(h.driver->stats().landed, 1u);
}

TEST(MigrationDriver, DestinationWrittenOffWhileUpRedrawsTarget) {
  // A false dead declaration sweeps the pending move into node 2 while
  // the node stays up: the flight into it must redraw rather than
  // commit a move the NameNode no longer holds.
  DriverHarness h(4);
  const auto blocks = h.load({0});
  h.submit(blocks[0], 0, 2);
  h.queue.schedule(2.0, [&] {
    h.nn.mark_node_dead(2);
    h.driver->on_node_written_off(2);
  });
  h.run();
  ASSERT_EQ(h.nn.block(blocks[0]).replicas.size(), 1u);
  const cluster::NodeIndex landed = h.nn.block(blocks[0]).replicas[0];
  EXPECT_TRUE(landed == 1u || landed == 3u);
  EXPECT_GE(h.driver->move_stats().redraws, 1u);
  EXPECT_EQ(h.driver->stats().landed, 1u);
}

TEST(MigrationDriver, BudgetGatesStartsFifoInSubmissionOrder) {
  sim::MigrationDriver::Config config;
  config.max_concurrent = 3;                  // concurrency allows all
  config.budget_bytes_per_s = kBlockBytes;    // ...budget admits 1/s
  DriverHarness h(6, config);
  obs::EventTracer tracer(256);
  h.driver->set_tracer(&tracer);
  const auto blocks = h.load({0, 1, 2});
  h.submit(blocks[0], 0, 3);
  h.submit(blocks[1], 1, 4);
  h.submit(blocks[2], 2, 5);
  h.run();
  EXPECT_EQ(h.driver->stats().landed, 3u);
  // Starts spaced by block_bytes / budget = 1 s, strictly in
  // submission order.
  std::vector<obs::TraceRecord> starts;
  for (const obs::TraceRecord& r : tracer.take_records()) {
    if (r.type == obs::EventType::kMigrationStart) starts.push_back(r);
  }
  ASSERT_EQ(starts.size(), 3u);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i].task, blocks[i]);
    EXPECT_DOUBLE_EQ(starts[i].v0, static_cast<double>(i));  // grant start
  }
}

TEST(MigrationDriver, RetryBudgetExhaustionReleasesReservation) {
  sim::MigrationDriver::Config config;
  config.max_retries = 0;  // first in-flight failure is terminal
  DriverHarness h(4, config);
  const auto blocks = h.load({0});
  h.nn.add_replica(blocks[0], 1);
  h.submit(blocks[0], 0, 2);
  h.down_at(2.0, 2);
  h.run();
  EXPECT_EQ(h.driver->stats().giveups, 1u);
  EXPECT_EQ(h.driver->stats().landed, 0u);
  // Giving up is safe: the source replicas are intact and nothing is
  // pending anymore.
  const std::vector<cluster::NodeIndex> expect = {0, 1};
  EXPECT_EQ(h.nn.block(blocks[0]).replicas, expect);
  EXPECT_TRUE(h.nn.pending_moves().empty());
}

TEST(MigrationDriver, MootMoveIsDroppedWhenSourceReplicaVanished) {
  DriverHarness h(4);
  const auto blocks = h.load({0});
  h.nn.add_replica(blocks[0], 1);
  h.nn.begin_move(blocks[0], 0, 2);
  // The replica leaves node 0 before the driver ever starts the move.
  h.nn.remove_replica(blocks[0], 0);
  h.driver->submit({blocks[0], 0, 2});
  h.run();
  EXPECT_EQ(h.driver->move_stats().cancelled, 1u);
  EXPECT_EQ(h.driver->stats().started, 0u);
  EXPECT_TRUE(h.nn.pending_moves().empty());
  EXPECT_EQ(h.nn.block(blocks[0]).replicas,
            std::vector<cluster::NodeIndex>{1});
}

TEST(MigrationDriver, CancelAllReleasesQueuedAndInFlightReservations) {
  sim::MigrationDriver::Config config;
  config.max_concurrent = 1;
  DriverHarness h(6, config);
  const auto blocks = h.load({0, 1, 2});
  h.submit(blocks[0], 0, 3);
  h.submit(blocks[1], 1, 4);
  h.submit(blocks[2], 2, 5);
  h.queue.schedule(1.0, [&] { h.driver->cancel_all(); });
  h.run();
  EXPECT_EQ(h.driver->move_stats().cancelled, 3u);
  EXPECT_EQ(h.driver->stats().landed, 0u);
  EXPECT_TRUE(h.nn.pending_moves().empty());
  // Replicas untouched: cancelling never loses or moves data.
  for (cluster::NodeIndex i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(h.nn.block(blocks[i]).replicas,
              std::vector<cluster::NodeIndex>{i});
  }
}

// ---------------------------------------------------------------------
// Closed loop at the job-stream level
// ---------------------------------------------------------------------

core::JobStreamConfig stream_config(bool loop) {
  core::JobStreamConfig config;
  config.policy = core::PolicyKind::kAdapt;
  config.replication = 2;
  config.blocks = 48;
  config.jobs = 2;
  config.shift_at_job = 0;  // whole stream runs under the shifted regime
  config.seed = 33;
  // Tasks long enough that a 64 MiB migration can land inside the job;
  // shorter jobs tear down (cancel_all) before any transfer completes.
  config.job.gamma = 60.0;
  config.job.churn.enabled = true;
  config.job.rebalance.enabled = loop;
  config.job.rebalance.hysteresis = 1.2;
  config.job.rebalance.cooldown = 30.0;
  config.obs.sample_dt = 15.0;
  return config;
}

struct StreamWorld {
  cluster::Cluster initial;
  cluster::Cluster shifted;

  StreamWorld() {
    const std::size_t nodes = 24;
    const auto initial_params = trace::seti_like_population(nodes, 3);
    auto shifted_params = initial_params;
    // The *reliable* half turns flaky — exactly where ADAPT put the
    // data, so the stale placement degrades relative to the median.
    std::vector<std::size_t> order(initial_params.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const double ua = initial_params[a].utilization();
                const double ub = initial_params[b].utilization();
                return ua != ub ? ua < ub : a < b;
              });
    for (std::size_t i = 0; i < order.size() / 2; ++i) {
      avail::InterruptionParams& p = shifted_params[order[i]];
      p.lambda *= 8.0;
      p.mu *= 4.0;
      if (!p.stable()) p.mu = 0.9 / p.lambda;
    }
    cluster::TraceClusterConfig tc;
    initial = cluster::model_cluster(initial_params, tc);
    shifted = cluster::model_cluster(shifted_params, tc);
  }
};

TEST(JobStream, RegimeShiftTripsTheLoopAndMigrates) {
  StreamWorld world;
  const core::JobStreamResult result =
      core::run_job_stream(world.initial, world.shifted, stream_config(true));
  EXPECT_EQ(result.jobs.size(), 2u);
  EXPECT_GT(result.rebalance_triggers, 0u);
  EXPECT_GT(result.migrations_committed, 0u);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(JobStream, DeterministicAcrossRepeats) {
  StreamWorld world;
  const core::JobStreamResult a =
      core::run_job_stream(world.initial, world.shifted, stream_config(true));
  const core::JobStreamResult b =
      core::run_job_stream(world.initial, world.shifted, stream_config(true));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.rebalance_triggers, b.rebalance_triggers);
  EXPECT_EQ(a.migrations_committed, b.migrations_committed);
  EXPECT_EQ(a.migration_bytes, b.migration_bytes);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].elapsed, b.jobs[i].elapsed);
  }
}

TEST(JobStream, HeavyHeartbeatLossSurvivesEveryNodeBelievedDead) {
  // With 90% of heartbeats lost the collector soon believes every node
  // dead, so the re-replication policy is rebuilt from estimates in
  // which no node has a positive weight. It must fall back to uniform
  // weights rather than abort the stream.
  StreamWorld world;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    core::JobStreamConfig config = stream_config(false);
    config.seed = seed;
    config.job.churn.heartbeat_loss_prob = 0.9;
    core::JobStreamResult result;
    EXPECT_NO_THROW(result = core::run_job_stream(world.initial,
                                                  world.shifted, config))
        << "seed " << seed;
    EXPECT_EQ(result.jobs.size(), 2u) << "seed " << seed;
  }
}

TEST(JobStream, PlacementRecordsCarryQuotesAndLineageIsKept) {
  // A stream shares the experiment's set-up: each load placement record
  // carries the Eq. 5 quote its node was priced with, and obs.lineage
  // returns the streaming lineage index.
  StreamWorld world;
  core::JobStreamConfig config = stream_config(false);
  config.obs.trace = true;
  config.obs.lineage = true;
  const core::JobStreamResult result =
      core::run_job_stream(world.initial, world.shifted, config);
  ASSERT_NE(result.obs.lineage, nullptr);
  EXPECT_EQ(result.obs.lineage->blocks.size(), config.blocks);
  const std::vector<double> quotes =
      avail::expected_task_times(world.initial.params(), config.job.gamma);
  std::size_t placements = 0;
  for (const obs::TraceRecord& r : result.obs.records) {
    if (r.type != obs::EventType::kPlacement) continue;
    ++placements;
    EXPECT_EQ(r.v0, quotes[r.node]) << "node " << r.node;
  }
  EXPECT_EQ(placements, config.blocks * 2u);
}

TEST(JobStream, LoopOffRunsCleanWithZeroMigrationFootprint) {
  StreamWorld world;
  core::JobStreamConfig config = stream_config(false);
  config.obs.trace = true;
  config.obs.metrics = true;
  const core::JobStreamResult result =
      core::run_job_stream(world.initial, world.shifted, config);
  EXPECT_EQ(result.rebalance_triggers, 0u);
  EXPECT_EQ(result.migrations_committed, 0u);
  EXPECT_EQ(result.migration_bytes, 0u);
  // Byte-compat contract: with the loop off, no migration metric keys
  // and no migration/rebalance trace events may appear.
  for (const auto& counter : result.obs.metrics.counters) {
    EXPECT_TRUE(counter.first.rfind("migration.", 0) != 0 &&
                counter.first != "sim.rebalance_triggers")
        << counter.first;
  }
  for (const obs::TraceRecord& r : result.obs.records) {
    EXPECT_NE(r.type, obs::EventType::kRebalanceTrigger);
    EXPECT_NE(r.type, obs::EventType::kMigrationStart);
    EXPECT_NE(r.type, obs::EventType::kMigrationCommit);
    EXPECT_NE(r.type, obs::EventType::kMigrationRetry);
    EXPECT_NE(r.type, obs::EventType::kMigrationGiveup);
  }
}

}  // namespace
