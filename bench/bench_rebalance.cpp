// Drift→rebalance loop bench: a continuous stream of map jobs over one
// persistent mini-HDFS whose availability regime shifts mid-stream. The
// data was placed for the initial regime; from --shift-job on, the most
// reliable half of the pool turns flaky. With the loop OFF the stale
// placement keeps paying for the shift; with it ON the CUSUM drift
// alarms re-estimate (lambda, mu), rebuild the Algorithm-1 weights and
// migrate the degraded replicas under a bandwidth budget. The sweep
// reports stream makespan, calibration ratio and migration traffic for
// both arms.
//
//   ./bench_rebalance [--nodes N] [--runs R] [--seed S] [--jobs J]
//                     [--gap SEC] [--shift-job J] [--shift-lambda X]
//                     [--shift-mu X] [--hysteresis H] [--cooldown SEC]
//                     [--budget-bps B] [--migration-concurrency C]
//                     [--threads T] [--json PATH] [--trace PATH]
//                     [--metrics] [--sample-dt S] [--spans PATH]
//                     [--timeseries PATH] [--calibrate]
//
// Exports are byte-identical across --threads for the same seed.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "cluster/topology.h"
#include "common/stats.h"
#include "core/adapt.h"
#include "runner/thread_pool.h"
#include "trace/generator.h"
#include "workload/sweeps.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

// The regime shift that hurts a stale placement most: the *best* half of
// the pool (lowest utilization, where ADAPT concentrated the data) turns
// flaky — interruptions arrive `lambda_factor` times as often and last
// `mu_factor` times as long.
std::vector<avail::InterruptionParams> shift_population(
    const std::vector<avail::InterruptionParams>& initial,
    double lambda_factor, double mu_factor) {
  std::vector<std::size_t> order(initial.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ua = initial[a].utilization();
    const double ub = initial[b].utilization();
    return ua != ub ? ua < ub : a < b;
  });
  std::vector<avail::InterruptionParams> shifted = initial;
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    avail::InterruptionParams& p = shifted[order[i]];
    p.lambda *= lambda_factor;
    p.mu *= mu_factor;
    // Keep the node usable (rho < 1): a saturated node would just be
    // declared dead, which is the churn bench's territory.
    if (!p.stable()) p.mu = 0.9 / p.lambda;
  }
  return shifted;
}

struct Scenario {
  std::string label;
  int shift_at_job;  // < 0 = no shift
};

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const bench::BenchOptions common_opts =
      bench::bench_options(flags, {.runs = 2, .seed = 11, .nodes = 96,
                                   .full_nodes = 128});
  const std::size_t nodes = common_opts.nodes;
  const int runs = common_opts.runs;
  const std::uint64_t seed = common_opts.seed;
  const int jobs = static_cast<int>(flags.get_int("jobs", 12));
  const double gap = flags.get_double("gap", 0.0);
  const int shift_job = static_cast<int>(flags.get_int("shift-job", 1));
  const double shift_lambda = flags.get_double("shift-lambda", 6.0);
  const double shift_mu = flags.get_double("shift-mu", 3.0);
  const double hysteresis = flags.get_double("hysteresis", 1.5);
  const double cooldown = flags.get_double("cooldown", 60.0);
  const double budget_bps =
      flags.get_double("budget-bps", 4.0 * 1024 * 1024);
  const int migration_concurrency =
      static_cast<int>(flags.get_int("migration-concurrency", 4));
  bench::RunnerOptions options = common_opts.runner;
  bench::abort_on_unused_flags(flags);
  // The loop is driven by the CUSUM stepping on the sampling tick, so
  // this bench always samples and always tracks calibration.
  if (options.obs.sample_dt <= 0.0) options.obs.sample_dt = 20.0;
  options.obs.calibration.enabled = true;

  bench::print_header(
      "Drift→rebalance loop — regime shift on a continuous job stream",
      "data placed for the initial regime; the reliable half of the pool "
      "turns flaky at --shift-job.\nDefaults: " + std::to_string(nodes) +
          " nodes, " + std::to_string(jobs) + " jobs/stream, " +
          std::to_string(runs) + " stream(s) per point.");

  const auto initial_params = trace::seti_like_population(nodes, seed);
  const auto shifted_params =
      shift_population(initial_params, shift_lambda, shift_mu);
  cluster::TraceClusterConfig tc;
  const cluster::Cluster initial = cluster::model_cluster(initial_params, tc);
  const cluster::Cluster shifted = cluster::model_cluster(shifted_params, tc);
  workload::Workload w = workload::simulation_workload();

  const std::vector<Scenario> scenarios = {
      {"no shift", -1},
      {"shift@" + std::to_string(shift_job), shift_job},
  };
  const std::vector<bool> loop_arms = {false, true};

  // One flat pool job per (scenario, arm, run); every slot derives its
  // own seed, so results and exports are identical for any --threads.
  struct Cell {
    Scenario scenario;
    bool loop;
  };
  std::vector<Cell> cells;
  for (const Scenario& s : scenarios) {
    for (const bool loop : loop_arms) cells.push_back({s, loop});
  }
  std::vector<core::JobStreamResult> results(cells.size() *
                                             static_cast<std::size_t>(runs));
  std::vector<std::function<void()>> pool_jobs;
  pool_jobs.reserve(results.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int r = 0; r < runs; ++r) {
      const std::size_t slot = c * static_cast<std::size_t>(runs) +
                               static_cast<std::size_t>(r);
      pool_jobs.push_back([&, c, slot] {
        const Cell& cell = cells[c];
        core::JobStreamConfig config;
        config.policy = core::PolicyKind::kAdapt;
        config.replication = 2;
        config.blocks = w.blocks_for(nodes);
        config.job.gamma = w.gamma();
        config.job.churn.enabled = true;
        config.job.churn.rereplication.max_concurrent = 8;
        config.job.rebalance.enabled = cell.loop;
        config.job.rebalance.hysteresis = hysteresis;
        config.job.rebalance.cooldown = cooldown;
        config.job.rebalance.migration.max_concurrent =
            migration_concurrency;
        config.job.rebalance.migration.budget_bytes_per_s = budget_bps;
        config.jobs = jobs;
        config.arrival_gap = gap;
        config.shift_at_job = cell.scenario.shift_at_job;
        config.seed = runner::derive_run_seed(seed, slot);
        config.obs = options.obs;
        results[slot] =
            core::run_job_stream(initial, shifted, config);
      });
    }
  }
  runner::ThreadPool pool(options.threads);
  pool.run_all(std::move(pool_jobs));

  runner::Report report("rebalance", seed, runs);
  report.set_config("nodes", static_cast<double>(nodes));
  report.set_config("jobs", static_cast<double>(jobs));
  report.set_config("hysteresis", hysteresis);
  report.set_config("cooldown", cooldown);
  report.set_config("budget_bps", budget_bps);
  bench::ObsSink sink(options);

  common::Table table({"scenario", "loop", "makespan (s)", "calib ratio",
                       "triggers", "moved", "give-ups", "migrated",
                       "migr (B/s)", "tasks lost"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    std::vector<double> makespans;
    double ratio = 0.0;
    std::uint64_t triggers = 0;
    std::uint64_t committed = 0;
    std::uint64_t giveups = 0;
    std::uint64_t bytes = 0;
    std::uint64_t tasks_lost = 0;
    std::uint64_t failed = 0;
    for (int r = 0; r < runs; ++r) {
      const std::size_t slot = c * static_cast<std::size_t>(runs) +
                               static_cast<std::size_t>(r);
      core::JobStreamResult& result = results[slot];
      makespans.push_back(result.makespan);
      ratio += result.calibration_ratio;
      triggers += result.rebalance_triggers;
      committed += result.migrations_committed;
      giveups += result.migration_giveups;
      bytes += result.migration_bytes;
      tasks_lost += result.tasks_lost;
      failed += result.failed_jobs;
      if (options.obs.enabled()) {
        sink.runs.push_back(std::move(result.obs));
      }
    }
    ratio /= static_cast<double>(runs);
    const common::Summary makespan = common::summarize(makespans);
    // Budget compliance: migration traffic averaged over the stream.
    const double migr_bps =
        makespan.mean > 0.0
            ? static_cast<double>(bytes) /
                  (makespan.mean * static_cast<double>(runs))
            : 0.0;
    const std::string series = cell.loop ? "loop on" : "loop off";
    table.add_row({cell.scenario.label, series,
                   common::format_double(makespan.mean, 0),
                   common::format_double(ratio, 3),
                   std::to_string(triggers), std::to_string(committed),
                   std::to_string(giveups), common::format_bytes(bytes),
                   common::format_double(migr_bps, 0),
                   std::to_string(tasks_lost)});
    report.add_row(
        "Regime shift: stream makespan & calibration",
        cell.scenario.label, series,
        {{"makespan_mean", makespan.mean},
         {"makespan_stddev", makespan.stddev},
         {"calibration_ratio", ratio},
         {"rebalance_triggers", static_cast<double>(triggers)},
         {"migrations_committed", static_cast<double>(committed)},
         {"migration_giveups", static_cast<double>(giveups)},
         {"migration_bytes", static_cast<double>(bytes)},
         {"migration_bps", migr_bps},
         {"tasks_lost", static_cast<double>(tasks_lost)},
         {"failed_jobs", static_cast<double>(failed)}});
  }
  std::printf("\n--- Regime shift: stream makespan & calibration ---\n%s",
              table.to_string().c_str());
  std::printf("budget: %s/s per stream; 'migr (B/s)' is realized "
              "migration traffic over the mean makespan.\n",
              common::format_bytes(
                  static_cast<std::uint64_t>(budget_bps)).c_str());
  std::fflush(stdout);

  sink.finish(report);
  bench::write_report(report, options.json_path);
  return 0;
}
