#include "runner/runner.h"

#include <stdexcept>
#include <utility>

#include "common/rng.h"

namespace adapt::runner {

std::uint64_t derive_run_seed(std::uint64_t base_seed,
                              std::uint64_t run_index) {
  // Same stream-keyed splitmix64 derivation as Rng::fork: statistically
  // independent streams for distinct run indices, reproducible from the
  // base seed alone.
  std::uint64_t s = base_seed ^ (0xd1b54a32d192ed03ull * (run_index + 1));
  return common::splitmix64(s);
}

ExperimentRunner::ExperimentRunner(std::size_t threads) : pool_(threads) {}

std::vector<core::ExperimentResult> ExperimentRunner::run_all(
    const std::vector<Job>& jobs) {
  std::vector<core::ExperimentResult> results(jobs.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    if (job.cluster == nullptr) {
      throw std::invalid_argument("run_all: job without a cluster");
    }
    tasks.push_back([&results, &job, i] {
      results[i] = core::run_experiment(*job.cluster, job.config);
    });
  }
  pool_.run_all(std::move(tasks));
  return results;
}

namespace {

// Move each run's observations out of the results (in run order) so the
// caller can serialize them deterministically.
void drain_observations(std::vector<core::ExperimentResult>& results,
                        std::vector<obs::RunObservations>* obs) {
  if (obs == nullptr) return;
  obs->reserve(obs->size() + results.size());
  for (core::ExperimentResult& result : results) {
    obs->push_back(std::move(result.obs));
  }
}

}  // namespace

core::RepeatedResult ExperimentRunner::run_replications(
    const cluster::Cluster& cluster, core::ExperimentConfig config,
    int runs, std::vector<obs::RunObservations>* obs) {
  return run_sweep({{borrow(cluster), std::move(config), runs}}, obs)
      .front();
}

std::vector<core::RepeatedResult> ExperimentRunner::run_sweep(
    const std::vector<SweepCell>& cells,
    std::vector<obs::RunObservations>* obs) {
  std::vector<Job> jobs;
  std::vector<std::size_t> cell_begin;  // job index of each cell's run 0
  cell_begin.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    if (!cell.cluster) {
      throw std::invalid_argument("run_sweep: cell without a cluster");
    }
    if (cell.runs < 1) {
      throw std::invalid_argument("run_sweep: cell runs must be >= 1");
    }
    cell_begin.push_back(jobs.size());
    for (int r = 0; r < cell.runs; ++r) {
      Job job;
      job.cluster = cell.cluster.get();
      job.config = cell.config;
      job.config.seed =
          derive_run_seed(cell.config.seed, static_cast<std::uint64_t>(r));
      jobs.push_back(std::move(job));
    }
  }
  std::vector<core::ExperimentResult> results = run_all(jobs);
  // Drain before merging: the per-cell merge copies its result slice,
  // and traces can be large.
  drain_observations(results, obs);
  std::vector<core::RepeatedResult> merged;
  merged.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto begin = results.begin() + static_cast<std::ptrdiff_t>(cell_begin[c]);
    merged.push_back(core::merge_results(std::vector<core::ExperimentResult>(
        begin, begin + cells[c].runs)));
  }
  return merged;
}

std::shared_ptr<const cluster::Cluster> borrow(
    const cluster::Cluster& cluster) {
  // Aliasing constructor: shared_ptr semantics without ownership.
  return std::shared_ptr<const cluster::Cluster>(
      std::shared_ptr<const cluster::Cluster>(), &cluster);
}

}  // namespace adapt::runner
