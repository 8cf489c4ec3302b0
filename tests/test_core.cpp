// The public facade: policies, experiments, repeated runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adapt.h"
#include "runner/runner.h"
#include "sim/injector.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;
using namespace adapt::core;

TEST(MakePolicy, AllKinds) {
  const std::vector<avail::InterruptionParams> params = {
      {0.0, 0.0}, {0.1, 4.0}, {0.05, 8.0}};
  EXPECT_EQ(make_policy(PolicyKind::kRandom, params, 8.0, 60)->name(),
            "random");
  EXPECT_EQ(make_policy(PolicyKind::kAdapt, params, 8.0, 60)->name(),
            "adapt");
  EXPECT_EQ(make_policy(PolicyKind::kNaive, params, 8.0, 60)->name(),
            "naive");
  EXPECT_EQ(to_string(PolicyKind::kAdapt), "adapt");
}

TEST(MakePolicy, AdaptFavorsDedicatedNodes) {
  const std::vector<avail::InterruptionParams> params = {
      {0.0, 0.0}, {0.1, 8.0}};
  const auto policy = make_policy(PolicyKind::kAdapt, params, 8.0, 100);
  const auto shares = policy->target_shares();
  EXPECT_GT(shares[0], shares[1] * 2.0);
}

TEST(RunExperiment, ProducesConsistentResult) {
  cluster::EmulationConfig emu;
  emu.node_count = 16;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  ExperimentConfig config;
  config.blocks = 160;
  config.replication = 2;
  config.job.gamma = 6.0;
  config.seed = 21;
  const ExperimentResult result = run_experiment(cl, config);
  EXPECT_EQ(result.policy_name, "adapt");
  EXPECT_EQ(result.job.tasks, 160u);
  EXPECT_EQ(result.load.blocks_moved, 320u);
  std::uint64_t replicas = 0;
  for (const auto c : result.distribution) replicas += c;
  EXPECT_EQ(replicas, 320u);
  EXPECT_GE(result.placement_skew, 1.0);
  // The Section IV-C cap bounds skew at (k+1)/k of the mean... in block
  // terms: max <= ceil(m(k+1)/n) = 30+ for m=160,k=2,n=16 -> skew <= 1.5+.
  EXPECT_LE(result.placement_skew, 1.6);
}

TEST(RunExperiment, SeedsTheSimulationFromConfigSeed) {
  // One seed drives a run: the load and the simulation both follow
  // config.seed, and job.seed is not read.
  cluster::EmulationConfig emu;
  emu.node_count = 16;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  ExperimentConfig config;
  config.blocks = 160;
  config.replication = 2;
  config.job.gamma = 6.0;
  config.seed = 21;
  const ExperimentResult a = run_experiment(cl, config);
  config.job.seed = 99;
  const ExperimentResult b = run_experiment(cl, config);
  EXPECT_EQ(a.job.elapsed, b.job.elapsed);
  EXPECT_EQ(a.job.events_processed, b.job.events_processed);
  EXPECT_EQ(a.job.attempts_started, b.job.attempts_started);
}

TEST(RunExperiment, Validation) {
  const cluster::Cluster cl =
      cluster::emulated_cluster(cluster::EmulationConfig{});
  ExperimentConfig config;  // blocks unset
  EXPECT_THROW(run_experiment(cl, config), std::invalid_argument);
}

TEST(RunExperiment, RebalanceLoopGetsTheCalibrationTracker) {
  // The drift loop steps the CUSUM on the sampling tick, so a run with
  // the loop on needs sample_dt > 0 and gets a calibration tracker even
  // when obs.calibration is off, as a job stream does.
  cluster::EmulationConfig emu;
  emu.node_count = 16;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  ExperimentConfig config;
  config.blocks = 160;
  config.job.gamma = 6.0;
  config.job.churn.enabled = true;
  config.job.rebalance.enabled = true;
  config.seed = 25;
  EXPECT_THROW(run_experiment(cl, config), std::invalid_argument);
  config.obs.sample_dt = 10.0;
  const ExperimentResult result = run_experiment(cl, config);
  EXPECT_EQ(result.job.tasks, 160u);
  EXPECT_GT(result.obs.calibration.pairs, 0u);
}

TEST(RunRepeated, AveragesAcrossSeeds) {
  cluster::EmulationConfig emu;
  emu.node_count = 16;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  ExperimentConfig config;
  config.blocks = 160;
  config.job.gamma = 6.0;
  config.seed = 23;
  runner::ExperimentRunner exec(1);
  const RepeatedResult result = exec.run_replications(cl, config, 4);
  EXPECT_EQ(result.elapsed.count, 4u);
  EXPECT_GT(result.elapsed.mean, 0.0);
  EXPECT_GT(result.locality.mean, 0.5);
  EXPECT_NEAR(result.total_ratio,
              result.rework_ratio + result.recovery_ratio +
                  result.migration_ratio + result.misc_ratio,
              1e-9);
  EXPECT_THROW(exec.run_replications(cl, config, 0), std::invalid_argument);
}

TEST(RunExperiment, ReducePhaseExtension) {
  cluster::EmulationConfig emu;
  emu.node_count = 16;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  ExperimentConfig config;
  config.blocks = 160;
  config.job.gamma = 6.0;
  config.seed = 31;
  config.run_reduce = true;
  config.reduce.output_ratio = 0.25;
  config.reduce.reducers = 16;
  const ExperimentResult result = run_experiment(cl, config);
  EXPECT_GT(result.reduce.elapsed, 0.0);
  EXPECT_EQ(result.reduce.reducers, 16u);
  EXPECT_GT(result.reduce.shuffle_bytes, 0u);

  // Availability-aware reducer placement also runs end to end.
  ExperimentConfig aware = config;
  aware.reduce.availability_aware = true;
  const ExperimentResult aware_result = run_experiment(cl, aware);
  EXPECT_GT(aware_result.reduce.elapsed, 0.0);
}

TEST(SteadyStateStart, FiltersPlacementToUpNodes) {
  // Model cluster with an always-down node (rho >> 1).
  std::vector<avail::InterruptionParams> params(8);
  params[3] = {1.0, 50.0};  // rho = 50: starts down, effectively forever
  const cluster::Cluster cl =
      cluster::model_cluster(params, cluster::TraceClusterConfig{});
  ExperimentConfig config;
  config.blocks = 80;
  config.job.gamma = 6.0;
  config.policy = PolicyKind::kRandom;
  config.steady_state_start = true;
  config.seed = 24;
  const ExperimentResult result = run_experiment(cl, config);
  EXPECT_EQ(result.distribution[3], 0u);
}

TEST(SteadyStateStart, UptimeClockNodeReturnsFromItsInitialOutage) {
  // Emulated nodes run the uptime clock. A node that starts mid-outage
  // comes back exactly when its residual busy period ends, and only then
  // is its next interruption armed.
  cluster::EmulationConfig emu;
  emu.node_count = 16;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  ASSERT_EQ(cl.nodes[0].arrival_clock, cluster::ArrivalClock::kUptime);
  ExperimentConfig config;
  config.blocks = 160;
  config.job.gamma = 6.0;
  config.steady_state_start = true;
  config.obs.trace = true;
  config.seed = 27;
  const ExperimentResult result = run_experiment(cl, config);
  EXPECT_EQ(result.job.local_wins + result.job.remote_wins +
                result.job.origin_wins,
            160u);

  // The residual outages run_experiment draws from its steady-state fork.
  common::Rng init_rng = common::Rng(config.seed).fork(0x57a7);
  const std::vector<common::Seconds> down_until =
      sim::draw_initial_down(cl.nodes, init_rng);
  // Per node, the up/down transitions in order ('d', 'u') and the time
  // of the first return.
  std::vector<std::string> transitions(cl.size());
  std::vector<common::Seconds> first_up(cl.size(), -1.0);
  for (const obs::TraceRecord& r : result.obs.records) {
    if (r.type == obs::EventType::kNodeDown) {
      transitions[r.node] += 'd';
    } else if (r.type == obs::EventType::kNodeUp) {
      if (first_up[r.node] < 0.0) first_up[r.node] = r.t;
      transitions[r.node] += 'u';
    }
  }
  std::size_t down_at_start = 0;
  std::size_t returned_and_rearmed = 0;
  for (std::size_t n = 0; n < cl.size(); ++n) {
    if (!(down_until[n] > 0.0)) continue;
    ++down_at_start;
    EXPECT_EQ(result.distribution[n], 0u) << "node " << n;
    if (first_up[n] >= 0.0) {
      EXPECT_EQ(first_up[n], down_until[n]) << "node " << n;
    }
    if (transitions[n].rfind("dud", 0) == 0) ++returned_and_rearmed;
  }
  EXPECT_GE(down_at_start, 1u);
  EXPECT_GE(returned_and_rearmed, 1u);
}

TEST(RunExperiment, ReplayLoadSkipsANodeDownForTheWholeTrace) {
  // A trace-replay cluster whose node 0 is down for the whole horizon:
  // whatever replay offset it draws, it is down at load, so the load
  // places nothing on it and the job completes on the other nodes.
  trace::Trace tr;
  tr.node_count = 8;
  tr.horizon = 24.0 * 3600.0;
  tr.events.push_back({0, 0.0, tr.horizon});
  const cluster::Cluster cl =
      cluster::trace_cluster(tr, cluster::TraceClusterConfig{});
  ASSERT_EQ(cl.nodes[0].mode, cluster::AvailabilityMode::kReplay);
  ExperimentConfig config;
  config.blocks = 80;
  config.job.gamma = 6.0;
  config.policy = PolicyKind::kRandom;
  config.seed = 26;
  const ExperimentResult result = run_experiment(cl, config);
  EXPECT_EQ(result.distribution[0], 0u);
  EXPECT_FALSE(result.job.failed);
  EXPECT_EQ(result.job.local_wins + result.job.remote_wins +
                result.job.origin_wins,
            80u);
}

}  // namespace
