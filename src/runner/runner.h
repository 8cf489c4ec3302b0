// Parallel experiment runner: fans independent MapReduceSimulation runs
// (via core::run_experiment) across a thread pool and merges the results
// into the paper's multi-run aggregates.
//
// Determinism contract: every run's RNG seed is derived from the
// configured base seed and the run's index through the library's
// splitmix64 stream derivation, and every run writes into its own
// pre-allocated result slot. Aggregation then walks the slots in index
// order, so the merged output is bit-identical for any thread count and
// any completion order — `--threads 8` reproduces `--threads 1` exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/adapt.h"
#include "runner/thread_pool.h"

namespace adapt::runner {

// Independent per-run seed: splitmix64 over the base seed and a
// run-index-keyed stream constant (the same derivation Rng::fork uses
// for named sub-streams).
std::uint64_t derive_run_seed(std::uint64_t base_seed,
                              std::uint64_t run_index);

class ExperimentRunner {
 public:
  // threads = 0: one worker per hardware thread.
  explicit ExperimentRunner(std::size_t threads = 0);

  std::size_t threads() const { return pool_.size(); }

  // One experiment job: a cluster (not owned; must outlive the call) and
  // a fully-specified config, seed included.
  struct Job {
    const cluster::Cluster* cluster = nullptr;
    core::ExperimentConfig config;
  };

  // Lowest-level fan-out: run every job, results in job order.
  std::vector<core::ExperimentResult> run_all(const std::vector<Job>& jobs);

  // `runs` replications of one experiment point: one run_sweep cell
  // over the borrowed cluster. Per-run seeds derive from config.seed;
  // the aggregate is identical for any thread count.
  // When `obs` is non-null and config.obs is enabled, each run's
  // observations are appended to it in run order (the same order for any
  // thread count, so trace exports stay byte-identical).
  core::RepeatedResult run_replications(
      const cluster::Cluster& cluster, core::ExperimentConfig config,
      int runs, std::vector<obs::RunObservations>* obs = nullptr);

  // One cell of a sweep grid: an experiment point (cluster x config)
  // replicated `runs` times.
  struct SweepCell {
    std::shared_ptr<const cluster::Cluster> cluster;
    core::ExperimentConfig config;
    int runs = 1;
  };

  // Run a whole sweep grid with *every* individual replication as an
  // independent pool job (so a sweep of P points x S series x R runs
  // keeps all workers busy even when single cells are small). Returns
  // one aggregate per cell, in cell order. When `obs` is non-null, the
  // per-run observations are appended in job (cell-major, run-minor)
  // order.
  std::vector<core::RepeatedResult> run_sweep(
      const std::vector<SweepCell>& cells,
      std::vector<obs::RunObservations>* obs = nullptr);

 private:
  ThreadPool pool_;
};

// Wrap a stack- or caller-owned cluster for SweepCell without taking
// ownership. The caller must keep the cluster alive until run_sweep
// returns.
std::shared_ptr<const cluster::Cluster> borrow(
    const cluster::Cluster& cluster);

}  // namespace adapt::runner
