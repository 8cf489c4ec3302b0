// The parallel experiment runner: seed derivation, thread pool
// mechanics, and the determinism contract (same base seed => bit-equal
// aggregates for any thread count), plus the JSON report emitter.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>

#include "cluster/topology.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "runner/thread_pool.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

cluster::Cluster small_cluster() {
  cluster::EmulationConfig emu;
  emu.node_count = 16;
  return cluster::emulated_cluster(emu);
}

core::ExperimentConfig small_config() {
  core::ExperimentConfig config;
  config.blocks = 96;
  config.replication = 2;
  config.policy = core::PolicyKind::kAdapt;
  config.job.gamma = workload::emulation_workload().gamma();
  config.seed = 42;
  return config;
}

void expect_bit_equal(const core::RepeatedResult& a,
                      const core::RepeatedResult& b) {
  // EXPECT_EQ on doubles is exact comparison: the contract is
  // bit-identical, not approximately equal.
  EXPECT_EQ(a.elapsed.mean, b.elapsed.mean);
  EXPECT_EQ(a.elapsed.stddev, b.elapsed.stddev);
  EXPECT_EQ(a.elapsed.p95, b.elapsed.p95);
  EXPECT_EQ(a.elapsed.ci95_half_width, b.elapsed.ci95_half_width);
  EXPECT_EQ(a.elapsed.count, b.elapsed.count);
  EXPECT_EQ(a.locality.mean, b.locality.mean);
  EXPECT_EQ(a.rework_ratio, b.rework_ratio);
  EXPECT_EQ(a.recovery_ratio, b.recovery_ratio);
  EXPECT_EQ(a.migration_ratio, b.migration_ratio);
  EXPECT_EQ(a.misc_ratio, b.misc_ratio);
  EXPECT_EQ(a.total_ratio, b.total_ratio);
}

TEST(DeriveRunSeed, DistinctAcrossRunsAndSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull, 0xffffffffffffffffull}) {
    for (std::uint64_t run = 0; run < 64; ++run) {
      seen.insert(runner::derive_run_seed(base, run));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);
  // Pure function of (base, index).
  EXPECT_EQ(runner::derive_run_seed(7, 3), runner::derive_run_seed(7, 3));
}

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  runner::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 100; ++i) {
    jobs.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(jobs);
  EXPECT_EQ(counter.load(), 100);
  // The pool is reusable after a batch drains.
  pool.run_all(jobs);
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, PropagatesJobExceptions) {
  runner::ThreadPool pool(2);
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] {});
  jobs.push_back([] { throw std::runtime_error("job failed"); });
  EXPECT_THROW(pool.run_all(jobs), std::runtime_error);
  // A failed batch must not poison the pool.
  std::atomic<int> counter{0};
  pool.run_all({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 1);
}

TEST(ExperimentRunner, ZeroThreadsMeansHardwareConcurrency) {
  runner::ExperimentRunner exec(0);
  EXPECT_GE(exec.threads(), 1u);
}

TEST(ExperimentRunner, AggregateIsBitIdenticalAcrossThreadCounts) {
  const cluster::Cluster cl = small_cluster();
  const core::ExperimentConfig config = small_config();
  const int runs = 6;

  runner::ExperimentRunner serial(1);
  const core::RepeatedResult reference =
      serial.run_replications(cl, config, runs);
  EXPECT_EQ(reference.elapsed.count, static_cast<std::size_t>(runs));
  EXPECT_GT(reference.elapsed.mean, 0.0);

  for (const std::size_t threads : {2u, 8u}) {
    runner::ExperimentRunner exec(threads);
    const core::RepeatedResult r = exec.run_replications(cl, config, runs);
    expect_bit_equal(reference, r);
  }
}

TEST(ExperimentRunner, ReplicationsMatchManualSeedDerivation) {
  const cluster::Cluster cl = small_cluster();
  core::ExperimentConfig config = small_config();
  const int runs = 3;

  std::vector<core::ExperimentResult> manual;
  for (int r = 0; r < runs; ++r) {
    core::ExperimentConfig per_run = config;
    per_run.seed =
        runner::derive_run_seed(config.seed, static_cast<std::uint64_t>(r));
    manual.push_back(core::run_experiment(cl, per_run));
  }
  const core::RepeatedResult expected = core::merge_results(manual);

  runner::ExperimentRunner exec(2);
  expect_bit_equal(expected, exec.run_replications(cl, config, runs));
}

TEST(ExperimentRunner, SweepMatchesPerCellReplications) {
  const auto cl = std::make_shared<const cluster::Cluster>(small_cluster());
  core::ExperimentConfig config = small_config();

  std::vector<runner::ExperimentRunner::SweepCell> cells;
  for (const auto policy :
       {core::PolicyKind::kRandom, core::PolicyKind::kAdapt}) {
    config.policy = policy;
    cells.push_back({cl, config, 2});
  }

  runner::ExperimentRunner exec(4);
  const auto sweep = exec.run_sweep(cells);
  ASSERT_EQ(sweep.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto expected =
        exec.run_replications(*cl, cells[i].config, cells[i].runs);
    expect_bit_equal(expected, sweep[i]);
  }
}

TEST(ExperimentRunner, BorrowSharesWithoutOwnership) {
  const cluster::Cluster cl = small_cluster();
  const auto borrowed = runner::borrow(cl);
  EXPECT_EQ(borrowed.get(), &cl);
}

TEST(Report, JsonIsDeterministicAndWellFormed) {
  const cluster::Cluster cl = small_cluster();
  runner::ExperimentRunner exec(2);
  const auto r = exec.run_replications(cl, small_config(), 2);

  const auto build = [&r] {
    runner::Report report("unit", 42, 2);
    report.set_config("nodes", 16.0);
    report.add_result("sweep A", "point \"1\"", "adapt r2", r);
    return report.to_json();
  };
  const std::string json = build();
  EXPECT_EQ(json, build());

  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"nodes\": 16"), std::string::npos);
  // Quotes in labels are escaped.
  EXPECT_NE(json.find("point \\\"1\\\""), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_mean\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Report, NonFiniteMetricsSerializeAsNull) {
  core::RepeatedResult r;
  r.elapsed.mean = std::numeric_limits<double>::quiet_NaN();
  runner::Report report("unit", 1, 1);
  report.add_result("s", "p", "series", r);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"elapsed_mean\": null"), std::string::npos);
}

}  // namespace
