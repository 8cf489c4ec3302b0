// Ablations of the design choices DESIGN.md §5 calls out:
//   1. Algorithm 1 chain weighting: paper rate/Omega vs exact overlap.
//   2. The Section IV-C fidelity cap on/off (storage skew vs elapsed).
//   3. Speculative execution on/off.
//   4. Rescue capability: origin re-issue delay sweep — the knob that
//      moves the environment between "cheap re-execution anywhere"
//      (where uniform placement + work stealing is hard to beat) and
//      "interrupted work must wait" (the Section III model's world,
//      where availability-aware placement pays).
//   5. Interruption arrival clock: uptime (fault-injector style) vs
//      absolute time (strict M/G/1).
//
//   ./bench_ablation [--runs R] [--seed S] [--threads T] [--json PATH]
//                    [--trace PATH] [--metrics]
#include <cstdio>

#include "bench_util.h"
#include "cluster/topology.h"
#include "trace/generator.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const bench::BenchOptions common_opts =
      bench::bench_options(flags, {.runs = 5, .seed = 99});
  const int runs = common_opts.runs;
  const std::uint64_t seed = common_opts.seed;
  const bench::RunnerOptions& options = common_opts.runner;
  bench::abort_on_unused_flags(flags);

  bench::print_header("Ablations (DESIGN.md §5)",
                      std::to_string(runs) + " runs per point");

  runner::ExperimentRunner exec(options.threads);
  runner::Report report("ablation", seed, runs);
  bench::ObsSink sink(options);

  const workload::Workload w = workload::emulation_workload();
  cluster::EmulationConfig emu;
  emu.node_count = 128;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);

  core::ExperimentConfig base;
  base.blocks = w.blocks_for(cl.size());
  base.job.gamma = w.gamma();
  base.replication = 1;
  base.seed = seed;
  base.policy = core::PolicyKind::kAdapt;
  base.obs = options.obs;

  {
    common::Table table({"chain weighting", "elapsed (s)", "locality"});
    for (const auto weighting : {placement::ChainWeighting::kPaper,
                                 placement::ChainWeighting::kOverlap}) {
      core::ExperimentConfig config = base;
      config.weighting = weighting;
      const auto r =
          exec.run_replications(cl, config, runs, sink.collector());
      table.add_row({placement::to_string(weighting),
                     common::format_double(r.elapsed.mean, 0),
                     common::format_percent(r.locality.mean)});
      report.add_result("1. chain weighting",
                        placement::to_string(weighting), "adapt r1", r);
    }
    std::printf("\n--- 1. Algorithm 1 chain weighting ---\n%s",
                table.to_string().c_str());
  }

  {
    // Use the strict-M/G/1 clock, whose wider E[T] spread makes ADAPT
    // want far more than the threshold on the dedicated nodes.
    cluster::EmulationConfig skewed_emu = emu;
    skewed_emu.absolute_arrival_clock = true;
    const cluster::Cluster skewed = cluster::emulated_cluster(skewed_emu);
    common::Table table(
        {"fidelity cap", "elapsed (s)", "max blocks/node", "skew"});
    for (const bool cap : {true, false}) {
      core::ExperimentConfig config = base;
      config.fidelity_cap = cap;
      // Single run for the skew readout (placement is the object here).
      const core::ExperimentResult r = core::run_experiment(skewed, config);
      std::uint64_t max_blocks = 0;
      for (const auto c : r.distribution) {
        max_blocks = std::max(max_blocks, c);
      }
      const auto repeated =
          exec.run_replications(skewed, config, runs, sink.collector());
      table.add_row({cap ? "on (m(k+1)/n)" : "off",
                     common::format_double(repeated.elapsed.mean, 0),
                     std::to_string(max_blocks),
                     common::format_double(r.placement_skew, 2)});
      report.add_result("2. fidelity cap", cap ? "on" : "off", "adapt r1",
                        repeated);
    }
    std::printf("\n--- 2. Section IV-C fidelity cap (strict-M/G/1 "
                "cluster) ---\n%s",
                table.to_string().c_str());
  }

  {
    common::Table table({"speculation", "random r1 (s)", "adapt r1 (s)"});
    for (const bool speculation : {true, false}) {
      core::ExperimentConfig config = base;
      config.job.scheduler.speculation = speculation;
      config.policy = core::PolicyKind::kRandom;
      const auto random =
          exec.run_replications(cl, config, runs, sink.collector());
      config.policy = core::PolicyKind::kAdapt;
      const auto adapt_r =
          exec.run_replications(cl, config, runs, sink.collector());
      table.add_row({speculation ? "on" : "off",
                     common::format_double(random.elapsed.mean, 0),
                     common::format_double(adapt_r.elapsed.mean, 0)});
      report.add_result("3. speculation", speculation ? "on" : "off",
                        "random r1", random);
      report.add_result("3. speculation", speculation ? "on" : "off",
                        "adapt r1", adapt_r);
    }
    std::printf("\n--- 3. Speculative execution ---\n%s",
                table.to_string().c_str());
  }

  {
    // Trace-population cluster; vary how costly a stranded block is.
    const std::size_t sim_nodes = 256;
    const cluster::Cluster sim_cl = cluster::model_cluster(
        trace::seti_like_population(sim_nodes, seed),
        cluster::TraceClusterConfig{});
    const workload::Workload sw = workload::simulation_workload();

    common::Table table({"reissue delay", "random r1 ovh", "adapt r1 ovh",
                         "adapt gain"});
    for (const double delay : {60.0, 600.0, 1800.0}) {
      core::ExperimentConfig config;
      config.blocks = sw.blocks_for(sim_nodes);
      config.job.gamma = sw.gamma();
      config.job.origin_fetch_delay = delay;
      config.steady_state_start = true;
      config.seed = seed;
      config.obs = options.obs;
      config.policy = core::PolicyKind::kRandom;
      const auto random = exec.run_replications(
          sim_cl, config, std::max(1, runs / 2), sink.collector());
      config.policy = core::PolicyKind::kAdapt;
      const auto adapt_r = exec.run_replications(
          sim_cl, config, std::max(1, runs / 2), sink.collector());
      table.add_row({common::format_seconds(delay),
                     common::format_percent(random.total_ratio),
                     common::format_percent(adapt_r.total_ratio),
                     common::format_percent(
                         1.0 - (1.0 + adapt_r.total_ratio) /
                                   (1.0 + random.total_ratio))});
      report.add_result("4. reissue delay", common::format_seconds(delay),
                        "random r1", random);
      report.add_result("4. reissue delay", common::format_seconds(delay),
                        "adapt r1", adapt_r);
    }
    std::printf("\n--- 4. Rescue capability (origin re-issue delay) ---\n%s",
                table.to_string().c_str());
  }

  {
    common::Table table({"arrival clock", "random r1 (s)", "adapt r1 (s)"});
    for (const bool absolute : {false, true}) {
      cluster::EmulationConfig config_emu = emu;
      config_emu.absolute_arrival_clock = absolute;
      const cluster::Cluster clock_cl = cluster::emulated_cluster(config_emu);
      core::ExperimentConfig config = base;
      config.policy = core::PolicyKind::kRandom;
      const auto random =
          exec.run_replications(clock_cl, config, runs, sink.collector());
      config.policy = core::PolicyKind::kAdapt;
      const auto adapt_r =
          exec.run_replications(clock_cl, config, runs, sink.collector());
      const std::string point = absolute ? "absolute" : "uptime";
      table.add_row({absolute ? "absolute (strict M/G/1)" : "uptime",
                     common::format_double(random.elapsed.mean, 0),
                     common::format_double(adapt_r.elapsed.mean, 0)});
      report.add_result("5. arrival clock", point, "random r1", random);
      report.add_result("5. arrival clock", point, "adapt r1", adapt_r);
    }
    std::printf("\n--- 5. Interruption arrival clock ---\n%s",
                table.to_string().c_str());
  }

  {
    // Extension (paper future work): shuffle + reduce phase with
    // random vs availability-aware reducer placement. The per-run
    // seeds are explicit (fixed offsets from the base seed), so the
    // jobs go through the low-level fan-out rather than
    // run_replications' derived seeds.
    common::Table table({"reducer placement", "reduce elapsed (s)",
                         "reassignments", "origin refetches"});
    for (const bool aware : {false, true}) {
      core::ExperimentConfig config = base;
      config.run_reduce = true;
      config.reduce.output_ratio = 1.0;  // Terasort shuffles everything
      config.reduce.availability_aware = aware;
      std::vector<runner::ExperimentRunner::Job> jobs;
      jobs.reserve(static_cast<std::size_t>(runs));
      for (int i = 0; i < runs; ++i) {
        config.seed = seed + 1000 + static_cast<std::uint64_t>(i);
        jobs.push_back({&cl, config});
      }
      auto results = exec.run_all(jobs);
      // run_all has no observation parameter; drain each result's
      // observations into the sink by hand, in job order.
      if (std::vector<obs::RunObservations>* out = sink.collector()) {
        for (core::ExperimentResult& r : results) {
          out->push_back(std::move(r.obs));
        }
      }
      double elapsed = 0.0;
      std::uint64_t reassigned = 0;
      std::uint64_t refetched = 0;
      for (const core::ExperimentResult& r : results) {
        elapsed += r.reduce.elapsed;
        reassigned += r.reduce.reducer_reassignments;
        refetched += r.reduce.origin_refetches;
      }
      table.add_row({aware ? "availability-aware" : "random",
                     common::format_double(elapsed / runs, 0),
                     common::format_double(
                         static_cast<double>(reassigned) / runs, 1),
                     common::format_double(
                         static_cast<double>(refetched) / runs, 1)});
      report.add_result("6. reduce placement",
                        aware ? "availability-aware" : "random", "adapt r1",
                        core::merge_results(results));
    }
    std::printf("\n--- 6. Reduce phase (future-work extension) ---\n%s",
                table.to_string().c_str());
  }

  {
    // 7. Placement x scheduler grid: does availability-aware placement
    // still pay once the scheduler also reacts to volatility — and do
    // the two compound, or does one subsume the other? Reported per
    // cell: mean makespan plus duplicate-attempt accounting (launches,
    // wins, cancelled-fetch waste).
    common::Table table({"policy", "scheduler", "elapsed (s)",
                         "spec launches", "spec wins", "redundant",
                         "waste/run"});
    for (const auto policy :
         {core::PolicyKind::kRandom, core::PolicyKind::kAdapt}) {
      for (const auto kind :
           {sim::SchedulerKind::kBaseline, sim::SchedulerKind::kCalibrated,
            sim::SchedulerKind::kRedundant}) {
        core::ExperimentConfig config = base;
        config.policy = policy;
        config.job.scheduler.kind = kind;
        const auto r =
            exec.run_replications(cl, config, runs, sink.collector());
        const double n = runs;
        table.add_row(
            {core::to_string(policy), sim::to_string(kind),
             common::format_double(r.elapsed.mean, 0),
             common::format_double(
                 static_cast<double>(r.speculative_launches) / n, 1),
             common::format_double(
                 static_cast<double>(r.speculative_wins) / n, 1),
             common::format_double(
                 static_cast<double>(r.redundant_launches) / n, 1),
             common::format_bytes(r.redundant_waste_bytes /
                                  static_cast<std::uint64_t>(runs))});
        report.add_row(
            "7. scheduler grid", sim::to_string(kind),
            core::to_string(policy) + " r1",
            {{"elapsed_mean", r.elapsed.mean},
             {"locality_mean", r.locality.mean},
             {"speculative_launches",
              static_cast<double>(r.speculative_launches) / n},
             {"speculative_wins",
              static_cast<double>(r.speculative_wins) / n},
             {"redundant_launches",
              static_cast<double>(r.redundant_launches) / n},
             {"redundant_waste_bytes",
              static_cast<double>(r.redundant_waste_bytes) / n}});
      }
    }
    std::printf("\n--- 7. Placement x scheduler grid ---\n%s",
                table.to_string().c_str());
  }
  sink.finish(report);
  bench::write_report(report, options.json_path);
  return 0;
}
