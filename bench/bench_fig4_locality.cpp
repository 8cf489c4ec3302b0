// Figure 4 reproduction: data locality (fraction of map tasks whose
// winning attempt ran on a replica holder) over the same three sweeps as
// Figure 3.
//
//   ./bench_fig4_locality [--runs R] [--seed S] [--full]
//                         [--threads T] [--json PATH]
//                         [--trace PATH] [--metrics]
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "cluster/topology.h"
#include "workload/sweeps.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

void run_sweep(runner::ExperimentRunner& exec, runner::Report& report,
               bench::ObsSink& sink, const std::string& title,
               const std::string& column,
               const std::vector<std::string>& labels,
               const std::vector<cluster::EmulationConfig>& configs,
               int runs, std::uint64_t seed) {
  const workload::Workload w = workload::emulation_workload();
  const std::vector<bench::Series> series = bench::fig3_series();

  std::vector<runner::ExperimentRunner::SweepCell> cells;
  cells.reserve(configs.size() * series.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto cl = std::make_shared<const cluster::Cluster>(
        cluster::emulated_cluster(configs[i]));
    core::ExperimentConfig config;
    config.blocks = w.blocks_for(cl->size());
    config.job.gamma = w.gamma();
    config.seed = seed + i;
    config.obs = sink.options.obs;
    for (const bench::Series& s : series) {
      config.policy = s.policy;
      config.replication = s.replication;
      cells.push_back({cl, config, runs});
    }
  }
  const std::vector<core::RepeatedResult> results =
      exec.run_sweep(cells, sink.collector());

  common::Table table({column, "random r1", "adapt r1", "random r2",
                       "adapt r2"});
  std::size_t cell = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::vector<std::string> row = {labels[i]};
    for (const bench::Series& s : series) {
      const core::RepeatedResult& r = results[cell++];
      row.push_back(common::format_percent(r.locality.mean));
      report.add_result(title, labels[i], s.label(), r);
    }
    table.add_row(row);
  }
  std::printf("\n--- %s ---\n%s", title.c_str(), table.to_string().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const bench::BenchOptions common_opts = bench::bench_options(
      flags, {.runs = 5, .full_runs = 10, .seed = 2012});
  const int runs = common_opts.runs;
  const std::uint64_t seed = common_opts.seed;
  const bench::RunnerOptions& options = common_opts.runner;
  bench::abort_on_unused_flags(flags);

  bench::print_header(
      "Figure 4 — data locality, emulated environment",
      "paper reference: random r1 dips (~87% at ratio 1/2) and falls "
      "with bandwidth;\nADAPT stays high and stable. " +
          std::to_string(runs) + " runs per point.");

  runner::ExperimentRunner exec(options.threads);
  runner::Report report("fig4_locality", seed, runs);
  bench::ObsSink sink(options);

  const workload::EmulationDefaults defaults =
      workload::emulation_defaults();

  {
    std::vector<std::string> labels;
    std::vector<cluster::EmulationConfig> configs;
    for (const double ratio : workload::interrupted_ratio_sweep()) {
      cluster::EmulationConfig config;
      config.node_count = defaults.node_count;
      config.interrupted_ratio = ratio;
      labels.push_back(common::format_double(ratio, 2));
      configs.push_back(config);
    }
    run_sweep(exec, report, sink, "Figure 4(a): ratio of interrupted nodes",
              "interrupted", labels, configs, runs, seed);
  }
  {
    std::vector<std::string> labels;
    std::vector<cluster::EmulationConfig> configs;
    for (const double bps : workload::bandwidth_sweep()) {
      cluster::EmulationConfig config;
      config.node_count = defaults.node_count;
      config.bandwidth_bps = bps;
      labels.push_back(common::format_bandwidth(bps));
      configs.push_back(config);
    }
    run_sweep(exec, report, sink, "Figure 4(b): network bandwidth",
              "bandwidth", labels, configs, runs, seed + 100);
  }
  {
    std::vector<std::string> labels;
    std::vector<cluster::EmulationConfig> configs;
    for (const std::size_t n : workload::emulation_node_sweep()) {
      cluster::EmulationConfig config;
      config.node_count = n;
      labels.push_back(std::to_string(n));
      configs.push_back(config);
    }
    run_sweep(exec, report, sink, "Figure 4(c): number of nodes", "nodes",
              labels, configs, runs, seed + 200);
  }
  sink.finish(report);
  bench::write_report(report, options.json_path);
  return 0;
}
