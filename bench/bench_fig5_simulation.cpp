// Figure 5 reproduction: large-scale trace-driven simulation with the
// per-component overhead decomposition (rework / recovery / migration /
// misc as ratios of the aggregate failure-free execution time).
//   (a) vs network bandwidth {4, 8, 16, 32} Mb/s
//   (b) vs block size {16 .. 256} MiB
//   (c) vs number of nodes
//
// Substrate: per-host M/G/1 interruption processes with parameters drawn
// from the Table-1-calibrated population; hosts start in steady state
// (placement sees only live DataNodes); stranded blocks are re-served by
// the data origin after a work-reissue delay (see DESIGN.md §2/§5).
//
//   ./bench_fig5_simulation [--nodes N] [--runs R] [--seed S]
//                           [--reissue-delay SEC] [--full]
//                           [--threads T] [--json PATH]
//                           [--trace PATH] [--metrics]
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "cluster/topology.h"
#include "trace/generator.h"
#include "workload/sweeps.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

struct Point {
  std::string label;
  std::size_t nodes;
  double bandwidth_bps;
  std::uint64_t block_size;
};

void run_sweep(runner::ExperimentRunner& exec, runner::Report& report,
               bench::ObsSink& sink, const std::string& title,
               const std::string& column, const std::vector<Point>& points,
               const std::vector<bench::Series>& series, int runs,
               std::uint64_t seed, double reissue_delay) {
  // Build the whole (point x series) grid first; every individual
  // replication then runs as an independent pool job.
  std::vector<runner::ExperimentRunner::SweepCell> cells;
  cells.reserve(points.size() * series.size());
  for (const Point& point : points) {
    const auto params = trace::seti_like_population(point.nodes, seed);
    cluster::TraceClusterConfig tc;
    tc.bandwidth_bps = point.bandwidth_bps;
    tc.block_size_bytes = point.block_size;
    const auto cl = std::make_shared<const cluster::Cluster>(
        cluster::model_cluster(params, tc));

    workload::Workload w = workload::simulation_workload();
    w.block_size_bytes = point.block_size;

    core::ExperimentConfig config;
    config.blocks = w.blocks_for(point.nodes);
    config.job.gamma = w.gamma();
    config.job.origin_fetch_delay = reissue_delay;
    config.steady_state_start = true;
    config.seed = seed;
    config.obs = sink.options.obs;

    for (const bench::Series& s : series) {
      config.policy = s.policy;
      config.replication = s.replication;
      cells.push_back({cl, config, runs});
    }
  }
  const std::vector<core::RepeatedResult> results =
      exec.run_sweep(cells, sink.collector());

  common::Table table({column, "series", "elapsed (s)", "total ovh",
                       "rework", "recovery", "migration", "misc",
                       "locality"});
  std::size_t cell = 0;
  for (const Point& point : points) {
    for (const bench::Series& s : series) {
      const core::RepeatedResult& r = results[cell++];
      table.add_row({point.label, s.label(),
                     common::format_double(r.elapsed.mean, 0),
                     common::format_percent(r.total_ratio),
                     common::format_percent(r.rework_ratio),
                     common::format_percent(r.recovery_ratio),
                     common::format_percent(r.migration_ratio),
                     common::format_percent(r.misc_ratio),
                     common::format_percent(r.locality.mean)});
      report.add_result(title, point.label, s.label(), r);
    }
  }
  std::printf("\n--- %s ---\n%s", title.c_str(), table.to_string().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const bench::BenchOptions common_opts = bench::bench_options(
      flags, {.runs = 1, .full_runs = 3, .seed = 5, .nodes = 512,
              .full_nodes = 8192});
  const bool full = common_opts.full;
  const std::size_t nodes = common_opts.nodes;
  const int runs = common_opts.runs;
  const std::uint64_t seed = common_opts.seed;
  const double reissue = flags.get_double("reissue-delay", 600.0);
  const bench::RunnerOptions& options = common_opts.runner;
  bench::abort_on_unused_flags(flags);

  bench::print_header(
      "Figure 5 — large-scale simulation, overhead decomposition",
      "paper reference: existing r1 incurs 172% overhead at 4 Mb/s; ADAPT "
      "halves migration;\nmisc dominates at large block sizes. Defaults "
      "scaled to " + std::to_string(nodes) + " nodes, " +
          std::to_string(runs) +
          " run(s) per point (paper: 8192; pass --full).");

  runner::ExperimentRunner exec(options.threads);
  runner::Report report("fig5_simulation", seed, runs);
  report.set_config("nodes", static_cast<double>(nodes));
  report.set_config("reissue_delay", reissue);
  bench::ObsSink sink(options);

  const auto series = bench::fig5_series(full);
  const workload::SimulationDefaults defaults =
      workload::simulation_defaults();

  {
    std::vector<Point> points;
    for (const double bps : workload::bandwidth_sweep()) {
      points.push_back({common::format_bandwidth(bps), nodes, bps,
                        defaults.block_size_bytes});
    }
    run_sweep(exec, report, sink, "Figure 5(a): network bandwidth",
              "bandwidth", points, series, runs, seed, reissue);
  }
  {
    std::vector<Point> points;
    for (const std::uint64_t bytes : workload::block_size_sweep()) {
      points.push_back({common::format_bytes(bytes), nodes,
                        defaults.bandwidth_bps, bytes});
    }
    run_sweep(exec, report, sink, "Figure 5(b): block size", "block size",
              points, series, runs, seed + 1, reissue);
  }
  {
    std::vector<Point> points;
    for (const std::size_t n : workload::simulation_node_sweep()) {
      const std::size_t scaled = full ? n : n / 8;
      points.push_back({std::to_string(scaled), scaled,
                        defaults.bandwidth_bps,
                        defaults.block_size_bytes});
    }
    run_sweep(exec, report, sink, "Figure 5(c): number of nodes", "nodes",
              points, series, runs, seed + 2, reissue);
  }
  sink.finish(report);
  bench::write_report(report, options.json_path);
  return 0;
}
