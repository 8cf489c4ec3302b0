// End-to-end smoke: a small heterogeneous cluster, both policies, the
// whole pipeline. Deeper per-module tests live in their own files.
#include <gtest/gtest.h>

#include "core/adapt.h"
#include "runner/runner.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

TEST(Smoke, AdaptBeatsRandomOnHeterogeneousCluster) {
  cluster::EmulationConfig emu;
  emu.node_count = 32;
  emu.interrupted_ratio = 0.5;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);

  const workload::Workload w = workload::emulation_workload();

  core::ExperimentConfig config;
  config.blocks = w.blocks_for(cl.size());
  config.replication = 1;
  config.job.gamma = w.gamma();
  config.seed = 7;
  runner::ExperimentRunner exec(1);

  config.policy = core::PolicyKind::kAdapt;
  const core::RepeatedResult adapt_result =
      exec.run_replications(cl, config, 3);

  config.policy = core::PolicyKind::kRandom;
  const core::RepeatedResult random_result =
      exec.run_replications(cl, config, 3);

  EXPECT_LT(adapt_result.elapsed.mean, random_result.elapsed.mean);
  EXPECT_GT(adapt_result.locality.mean, random_result.locality.mean);
  EXPECT_GT(adapt_result.locality.mean, 0.9);
}

}  // namespace
