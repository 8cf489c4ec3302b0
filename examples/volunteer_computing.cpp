// Volunteer-computing scenario: a SETI@home-like host population.
//
// Generates a synthetic failure trace calibrated to the paper's Table 1,
// derives per-host availability profiles, and compares placement
// policies for a MapReduce job dropped onto that population — the
// Section V-C setting end to end.
//
//   ./volunteer_computing [--hosts N] [--seed S]
#include <cstdio>

#include "common/config.h"
#include "common/table.h"
#include "core/adapt.h"
#include "trace/generator.h"
#include "trace/trace_stats.h"
#include "workload/terasort.h"

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const std::size_t hosts =
      static_cast<std::size_t>(flags.get_int("hosts", 512));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));

  // 1. The host population: 14 days of synthetic availability history.
  trace::GeneratorConfig gen_config;
  gen_config.node_count = hosts;
  gen_config.horizon = 14.0 * 24 * 3600;
  gen_config.seed = seed;
  const trace::GeneratedTrace gen =
      trace::generate_seti_like_trace(gen_config);
  const trace::TraceStats stats = trace::compute_trace_stats(gen.trace);
  std::printf("population: %zu hosts, %zu interruptions over 14 days\n",
              hosts, stats.event_count);
  std::printf("per-host MTBI mean %s, repair mean %s\n\n",
              common::format_seconds(stats.mtbi_per_host.mean).c_str(),
              common::format_seconds(stats.duration_per_host.mean).c_str());

  // 2. The cluster: each host an M/G/1 interruption process with the
  //    parameters its history was drawn from; hosts start in steady
  //    state, so the load only lands on hosts that are actually online.
  const cluster::Cluster cluster = cluster::model_cluster(
      trace::seti_like_population(hosts, seed), cluster::TraceClusterConfig{});

  // 3. The job: 100 x 64 MiB blocks per host, 12 s per block (Table 4).
  const workload::Workload workload = workload::simulation_workload();

  core::ExperimentConfig config;
  config.blocks = workload.blocks_for(hosts);
  config.job.gamma = workload.gamma();
  config.job.origin_fetch_delay = 600.0;  // project-server reissue
  config.steady_state_start = true;
  config.seed = seed;

  std::printf("%-28s %12s %10s %10s\n", "policy", "elapsed", "overhead",
              "locality");
  for (const auto kind :
       {core::PolicyKind::kRandom, core::PolicyKind::kNaive,
        core::PolicyKind::kAdapt}) {
    config.policy = kind;
    const core::ExperimentResult r = core::run_experiment(cluster, config);
    std::printf("%-28s %12s %10s %10s\n", r.policy_name.c_str(),
                common::format_seconds(r.job.elapsed).c_str(),
                common::format_percent(r.job.overhead.total_ratio()).c_str(),
                common::format_percent(r.job.locality).c_str());
  }
  return 0;
}
