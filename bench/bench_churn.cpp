// Churn & recovery bench: permanent departures on top of the transient
// M/G/1 interruption substrate. Sweeps the per-node departure hazard and
// the correlated-burst size against (policy, replication, pipeline)
// series, reporting job failures, data loss and the re-replication
// pipeline's work. Origin re-fetch is disabled so every loss is real:
// a block whose replicas all die is gone unless the pipeline saved it.
//
//   ./bench_churn [--nodes N] [--runs R] [--seed S]
//                 [--dead-timeout SEC] [--threads T] [--json PATH]
//                 [--trace PATH] [--metrics] [--calibrate]
//                 [--sample-dt S] [--timeseries PATH] [--spans PATH]
//                 [--lineage PATH] [--perfetto PATH] [--ring-capacity N]
//                 [--gray]
//
// With --lineage, additionally prints a loss post-mortem: every lost
// block classified by root cause (detection-window wipeout, retry
// exhaustion, false-positive write-off, corruption without survivor),
// aggregated across all sweeps.
//
// With --calibrate, prints a CUSUM drift-detection summary: how long
// after each permanent departure the heartbeat estimator's drift was
// flagged, plus the cluster calibration ratio (realized / predicted).
//
// With --gray, appends sweep (d): gray failures — per-beat heartbeat
// loss crossed with a timed control-plane partition, with bitrot, the
// block scanner and NameNode safe mode enabled — reporting the
// detector's false dead declarations and checksum catches per policy.
#include <array>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_util.h"
#include "cluster/topology.h"
#include "trace/generator.h"
#include "workload/sweeps.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

struct ChurnSeries {
  core::PolicyKind policy;
  int replication;
  bool pipeline;
  bool anti_affinity = false;
  std::string label() const {
    return core::to_string(policy) + (anti_affinity ? "+aa" : "") + " r" +
           std::to_string(replication) + (pipeline ? " +rr" : " -rr");
  }
};

struct Point {
  std::string label;
  double departure_rate;
  double burst_at;
  double burst_fraction;
  // When > 0, the burst takes down this many whole racks instead of a
  // uniform node fraction (needs a cluster built with a DomainLayout).
  std::uint32_t domain_burst = 0;
};

void run_sweep(runner::ExperimentRunner& exec, runner::Report& report,
               bench::ObsSink& sink, const std::string& title,
               const std::string& column, const std::vector<Point>& points,
               const std::vector<ChurnSeries>& series, std::size_t nodes,
               int runs, std::uint64_t seed, double dead_timeout,
               int rr_concurrency,
               cluster::DomainLayout layout = {}) {
  const auto params = trace::seti_like_population(nodes, seed);
  cluster::TraceClusterConfig tc;
  tc.domains = layout;
  const auto cl = std::make_shared<const cluster::Cluster>(
      cluster::model_cluster(params, tc));
  workload::Workload w = workload::simulation_workload();

  std::vector<runner::ExperimentRunner::SweepCell> cells;
  cells.reserve(points.size() * series.size());
  for (const Point& point : points) {
    core::ExperimentConfig config;
    config.blocks = w.blocks_for(nodes);
    config.job.gamma = w.gamma();
    config.job.allow_origin_fetch = false;
    config.seed = seed;
    config.obs = sink.options.obs;
    config.job.churn.enabled = true;
    config.job.churn.departure_rate = point.departure_rate;
    if (point.domain_burst > 0) {
      config.job.churn.domain_burst_at = point.burst_at;
      config.job.churn.domain_burst_count = point.domain_burst;
    } else {
      config.job.churn.burst_at = point.burst_at;
      config.job.churn.burst_fraction = point.burst_fraction;
    }
    config.job.churn.dead_timeout = dead_timeout;
    config.job.churn.rereplication.max_concurrent = rr_concurrency;
    for (const ChurnSeries& s : series) {
      config.policy = s.policy;
      config.replication = s.replication;
      config.domain_anti_affinity = s.anti_affinity;
      config.job.churn.rereplication.enabled = s.pipeline;
      cells.push_back({cl, config, runs});
    }
  }
  const std::vector<core::RepeatedResult> results =
      exec.run_sweep(cells, sink.collector());

  common::Table table({column, "series", "elapsed (s)", "failed",
                       "departed", "dead", "blocks lost", "tasks lost",
                       "re-repl", "give-ups", "moved"});
  std::size_t cell = 0;
  for (const Point& point : points) {
    for (const ChurnSeries& s : series) {
      const core::RepeatedResult& r = results[cell++];
      table.add_row(
          {point.label, s.label(),
           common::format_double(r.elapsed.mean, 0),
           std::to_string(r.failed_runs) + "/" + std::to_string(runs),
           std::to_string(r.nodes_departed),
           std::to_string(r.nodes_dead),
           std::to_string(r.blocks_lost),
           std::to_string(r.tasks_lost),
           std::to_string(r.rereplications),
           std::to_string(r.rereplication_giveups),
           common::format_bytes(r.rereplication_bytes)});
      report.add_result(title, point.label, s.label(), r);
    }
  }
  std::printf("\n--- %s ---\n%s", title.c_str(), table.to_string().c_str());
  std::fflush(stdout);
}

// Gray-failure sweep: per-beat heartbeat loss crossed with a timed
// partition of a quarter of the pool, on top of mild crash churn.
// Bitrot and the scanner run in every cell, and safe mode in every cell
// with loss or a partition, so the detection machinery (not just the
// injection) is exercised at bench scale. A short dead timeout makes
// lossy detection actually misfire.
struct GrayPoint {
  std::string label;
  double loss;
  bool partition;
};

void run_gray_sweep(runner::ExperimentRunner& exec, runner::Report& report,
                    bench::ObsSink& sink, const std::vector<GrayPoint>& points,
                    const std::vector<ChurnSeries>& series, std::size_t nodes,
                    int runs, std::uint64_t seed, int rr_concurrency) {
  const auto params = trace::seti_like_population(nodes, seed);
  const auto cl = std::make_shared<const cluster::Cluster>(
      cluster::model_cluster(params, {}));
  workload::Workload w = workload::simulation_workload();

  std::vector<runner::ExperimentRunner::SweepCell> cells;
  cells.reserve(points.size() * series.size());
  for (const GrayPoint& point : points) {
    core::ExperimentConfig config;
    config.blocks = w.blocks_for(nodes);
    config.job.gamma = w.gamma();
    config.job.allow_origin_fetch = false;
    config.seed = seed;
    config.obs = sink.options.obs;
    auto& churn = config.job.churn;
    churn.enabled = true;
    churn.departure_rate = 1.0 / 7200.0;
    churn.dead_timeout = 30.0;
    churn.heartbeat_loss_prob = point.loss;
    if (point.partition) {
      sim::SimJobConfig::ChurnConfig::Partition part;
      part.at = 120.0;
      part.heal_at = 240.0;
      for (std::uint32_t n = 0; n < nodes / 4; ++n) part.nodes.push_back(n);
      churn.partitions.push_back(part);
    }
    churn.bitrot_rate = 1.0 / 300.0;
    churn.scan_interval = 60.0;
    churn.scan_blocks_per_sweep = 16;
    if (churn.message_level()) {
      churn.safe_mode_threshold = 0.2;
      churn.safe_mode_hold = 60.0;
    }
    churn.rereplication.max_concurrent = rr_concurrency;
    for (const ChurnSeries& s : series) {
      config.policy = s.policy;
      config.replication = s.replication;
      config.job.churn.rereplication.enabled = s.pipeline;
      cells.push_back({cl, config, runs});
    }
  }
  const std::vector<core::RepeatedResult> results =
      exec.run_sweep(cells, sink.collector());

  common::Table table({"gray mode", "series", "elapsed (s)", "failed",
                       "lost beats", "false dead", "dead", "corrupt",
                       "caught", "safe", "blocks lost", "re-repl"});
  std::size_t cell = 0;
  for (const GrayPoint& point : points) {
    for (const ChurnSeries& s : series) {
      const core::RepeatedResult& r = results[cell++];
      table.add_row(
          {point.label, s.label(),
           common::format_double(r.elapsed.mean, 0),
           std::to_string(r.failed_runs) + "/" + std::to_string(runs),
           std::to_string(r.heartbeats_lost),
           std::to_string(r.false_dead_declarations),
           std::to_string(r.nodes_dead),
           std::to_string(r.replicas_corrupted),
           std::to_string(r.corrupt_reads),
           std::to_string(r.safe_mode_entries),
           std::to_string(r.blocks_lost),
           std::to_string(r.rereplications)});
      // Gray metrics ride a dedicated row so add_result's fixed metric
      // list (and every existing report consumer) stays untouched.
      report.add_row(
          "Churn (d): gray failures", point.label, s.label(),
          {{"elapsed_mean", r.elapsed.mean},
           {"failed_runs", static_cast<double>(r.failed_runs)},
           {"gray_heartbeats_lost",
            static_cast<double>(r.heartbeats_lost)},
           {"gray_false_dead_declarations",
            static_cast<double>(r.false_dead_declarations)},
           {"gray_replicas_corrupted",
            static_cast<double>(r.replicas_corrupted)},
           {"gray_corrupt_reads", static_cast<double>(r.corrupt_reads)},
           {"gray_safe_mode_entries",
            static_cast<double>(r.safe_mode_entries)},
           {"nodes_dead", static_cast<double>(r.nodes_dead)},
           {"blocks_lost", static_cast<double>(r.blocks_lost)},
           {"rereplications", static_cast<double>(r.rereplications)}});
    }
  }
  std::printf("\n--- Churn (d): gray failures (loss x partition) ---\n%s",
              table.to_string().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const bench::BenchOptions common_opts =
      bench::bench_options(flags, {.runs = 2, .seed = 5, .nodes = 128});
  const std::size_t nodes = common_opts.nodes;
  const int runs = common_opts.runs;
  const std::uint64_t seed = common_opts.seed;
  const double dead_timeout = flags.get_double("dead-timeout", 120.0);
  const int rr_concurrency =
      static_cast<int>(flags.get_int("rr-concurrency", 8));
  const bool gray = flags.get_bool("gray", false);
  const bench::RunnerOptions& options = common_opts.runner;
  bench::abort_on_unused_flags(flags);

  bench::print_header(
      "Churn & recovery — departures, dead declaration, re-replication",
      "origin re-fetch disabled: a block is lost unless the pipeline "
      "restored it.\nDefaults: " + std::to_string(nodes) + " nodes, " +
          std::to_string(runs) + " run(s) per point, dead timeout " +
          common::format_double(dead_timeout, 0) + " s.");

  runner::ExperimentRunner exec(options.threads);
  runner::Report report("churn", seed, runs);
  report.set_config("nodes", static_cast<double>(nodes));
  report.set_config("dead_timeout", dead_timeout);
  report.set_config("rr_concurrency", static_cast<double>(rr_concurrency));
  bench::ObsSink sink(options);

  const std::vector<ChurnSeries> series = {
      {core::PolicyKind::kRandom, 2, true},
      {core::PolicyKind::kAdapt, 2, true},
      {core::PolicyKind::kAdapt, 2, false},
      {core::PolicyKind::kAdapt, 3, true},
  };

  {
    // Hazard sweep: mean node lifetime from "nobody leaves" down to
    // ~15 min; the job itself runs for minutes at this scale.
    std::vector<Point> points = {
        {"no churn", 0.0, -1.0, 0.0},
        {"1/2h", 1.0 / 7200.0, -1.0, 0.0},
        {"1/1h", 1.0 / 3600.0, -1.0, 0.0},
        {"1/30m", 1.0 / 1800.0, -1.0, 0.0},
        {"1/15m", 1.0 / 900.0, -1.0, 0.0},
    };
    run_sweep(exec, report, sink, "Churn (a): departure hazard",
              "hazard", points, series, nodes, runs, seed, dead_timeout,
              rr_concurrency);
  }
  {
    // Correlated burst at t = 300 s: a fraction of the pool leaves at
    // one instant (campus power cut).
    std::vector<Point> points = {
        {"10%", 0.0, 300.0, 0.10},
        {"25%", 0.0, 300.0, 0.25},
        {"50%", 0.0, 300.0, 0.50},
    };
    run_sweep(exec, report, sink, "Churn (b): correlated burst at 300 s",
              "burst", points, series, nodes, runs, seed + 1, dead_timeout,
              rr_concurrency);
  }
  {
    // Correlated rack bursts: the cluster gets a 4-site x 2-rack
    // hierarchy (8 racks, 16 nodes each at the default scale) and the
    // burst takes whole racks down at t = 300 s. Racks this size are
    // where availability-weighted concentration actually co-locates
    // replicas, so this is the loss mode plain ADAPT is weakest
    // against; the +aa series places replicas anti-affine across racks
    // and the jump series hashes over the domain-major order. The
    // "hazard 1/1h" point is the independent-loss baseline on the same
    // layered cluster.
    const cluster::DomainLayout layout = {4, 2};
    const std::vector<ChurnSeries> domain_series = {
        {core::PolicyKind::kRandom, 2, true},
        {core::PolicyKind::kAdapt, 2, true},
        {core::PolicyKind::kAdapt, 2, true, /*anti_affinity=*/true},
        {core::PolicyKind::kJump, 2, true},
        {core::PolicyKind::kRandom, 3, true},
        {core::PolicyKind::kAdapt, 3, true},
        {core::PolicyKind::kAdapt, 3, true, /*anti_affinity=*/true},
        {core::PolicyKind::kJump, 3, true},
    };
    std::vector<Point> points = {
        {"hazard 1/1h", 1.0 / 3600.0, -1.0, 0.0, 0},
        {"1 rack", 0.0, 300.0, 0.0, 1},
        {"2 racks", 0.0, 300.0, 0.0, 2},
        {"4 racks", 0.0, 300.0, 0.0, 4},
    };
    run_sweep(exec, report, sink,
              "Churn (c): rack bursts at 300 s (4 sites x 2 racks)",
              "loss mode", points, domain_series, nodes, runs, seed + 2,
              dead_timeout, rr_concurrency, layout);
  }
  if (gray) {
    // Gray failures: the detector sees lossy beats and a partitioned
    // quarter of the pool while every node keeps computing.
    const std::vector<ChurnSeries> gray_series = {
        {core::PolicyKind::kRandom, 2, true},
        {core::PolicyKind::kAdapt, 2, true},
        {core::PolicyKind::kAdapt, 3, true},
    };
    std::vector<GrayPoint> points = {
        {"clean", 0.0, false},
        {"loss 10%", 0.10, false},
        {"loss 25%", 0.25, false},
        {"partition", 0.0, true},
        {"loss 10% + part", 0.10, true},
    };
    run_gray_sweep(exec, report, sink, points, gray_series, nodes, runs,
                   seed + 3, rr_concurrency);
  }
  if (options.obs.calibration.enabled) {
    // Aggregate the CUSUM drift detections across every run: how long
    // after a node permanently departed did the estimator's drift show.
    std::vector<double> latencies;
    std::uint64_t false_alarms = 0;
    std::uint64_t pairs = 0;
    double predicted = 0.0;
    double realized = 0.0;
    for (const obs::RunObservations& run : sink.runs) {
      pairs += run.calibration.pairs;
      predicted += run.calibration.predicted_sum;
      realized += run.calibration.realized_sum;
      for (const obs::DriftAlarm& alarm : run.calibration.alarms) {
        if (alarm.latency >= 0.0) {
          latencies.push_back(alarm.latency);
        } else {
          ++false_alarms;
        }
      }
    }
    const std::vector<double> qs =
        common::percentiles(latencies, {0.5, 0.95});
    double mean = 0.0;
    for (const double l : latencies) mean += l;
    if (!latencies.empty()) mean /= static_cast<double>(latencies.size());
    common::Table drift({"detections", "false alarms", "latency mean (s)",
                         "latency p50 (s)", "latency p95 (s)",
                         "calibration ratio"});
    drift.add_row({std::to_string(latencies.size()),
                   std::to_string(false_alarms),
                   common::format_double(mean, 1),
                   common::format_double(qs[0], 1),
                   common::format_double(qs[1], 1),
                   common::format_double(
                       predicted > 0.0 ? realized / predicted : 0.0, 3)});
    std::printf("\n--- Predictor drift detection (CUSUM) ---\n%s",
                drift.to_string().c_str());
    std::printf("pairs matched: %llu (realized task completions paired "
                "with their placement-time E[T] quote)\n",
                static_cast<unsigned long long>(pairs));
  }
  if (options.obs.lineage) {
    // Loss post-mortem: classify every lost block across every cell by
    // root cause. Correlated bursts should be dominated by
    // all_holders_dead_within_window (every copy written off in one
    // detection batch, no repair ever started); unclassified staying at
    // zero is the taxonomy's coverage guarantee.
    std::array<std::uint64_t, obs::kLossCauseCount> counts{};
    std::uint64_t total = 0;
    for (const obs::RunObservations& run : sink.runs) {
      if (run.lineage == nullptr) continue;
      const obs::LossReport losses = obs::post_mortem(*run.lineage);
      total += losses.total;
      for (std::size_t c = 0; c < obs::kLossCauseCount; ++c) {
        counts[c] += losses.counts[c];
      }
    }
    common::Table causes({"root cause", "blocks lost", "share"});
    std::vector<std::pair<std::string, double>> metrics;
    metrics.reserve(obs::kLossCauseCount + 1);
    for (std::size_t c = 0; c < obs::kLossCauseCount; ++c) {
      const char* name = obs::to_string(static_cast<obs::LossCause>(c));
      causes.add_row({name, std::to_string(counts[c]),
                      common::format_percent(
                          total > 0 ? static_cast<double>(counts[c]) /
                                          static_cast<double>(total)
                                    : 0.0)});
      metrics.emplace_back(std::string("loss_cause_") + name,
                           static_cast<double>(counts[c]));
    }
    metrics.emplace_back("loss_total", static_cast<double>(total));
    std::printf("\n--- Loss post-mortem (root-cause breakdown, all "
                "sweeps) ---\n%s",
                causes.to_string().c_str());
    const std::uint64_t unclassified =
        counts[static_cast<std::size_t>(obs::LossCause::kUnclassified)];
    std::printf("classified %llu/%llu lost block(s)%s\n",
                static_cast<unsigned long long>(total - unclassified),
                static_cast<unsigned long long>(total),
                unclassified > 0 ? "  [WARNING: unclassified losses]" : "");
    report.add_row("Loss post-mortem", "all sweeps", "all series", metrics);
  }
  sink.finish(report);
  bench::write_report(report, options.json_path);
  return 0;
}
