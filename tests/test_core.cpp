// The public facade: policies, experiments, repeated runs.
#include <gtest/gtest.h>

#include "core/adapt.h"
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
  const RepeatedResult result = run_repeated(cl, config, 4);
  EXPECT_EQ(result.elapsed.count, 4u);
  EXPECT_GT(result.elapsed.mean, 0.0);
  EXPECT_GT(result.locality.mean, 0.5);
  EXPECT_NEAR(result.total_ratio,
              result.rework_ratio + result.recovery_ratio +
                  result.migration_ratio + result.misc_ratio,
              1e-9);
  EXPECT_THROW(run_repeated(cl, config, 0), std::invalid_argument);
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

}  // namespace
