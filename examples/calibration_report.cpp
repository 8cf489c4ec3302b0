// Predictor calibration report: how good were the NameNode's E[T_i]
// quotes, and how fast does the drift detector notice when the cluster
// stops matching them?
//
// Runs one churn scenario (permanent departures on a SETI-like host
// population) with the calibration tracker on: every retired map task
// pairs its realized completion time with the Eq. 5 expectation quoted
// for its node at placement time, per-node and cluster-wide quantile
// sketches accumulate both sides, and a CUSUM detector watches the
// heartbeat estimates drift away from ground truth after each
// departure. Prints the cluster calibration ratio, the
// predicted-vs-realized quantiles for the busiest nodes, and the
// detection latency of every drift alarm.
//
//   ./calibration_report [--nodes N] [--seed S] [--hazard H]
//     --nodes N    host population size            (default 96)
//     --seed S     base RNG seed                   (default 5)
//     --hazard H   per-node departure rate, 1/s    (default 1/1800)
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "core/adapt.h"
#include "trace/generator.h"
#include "workload/terasort.h"

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const std::size_t nodes =
      static_cast<std::size_t>(flags.get_int("nodes", 96));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
  const double hazard = flags.get_double("hazard", 1.0 / 1800.0);

  // Host population with heterogeneous (lambda, mu) profiles — the
  // setting where per-node calibration is interesting.
  const cluster::Cluster cluster = cluster::model_cluster(
      trace::seti_like_population(nodes, seed), cluster::TraceClusterConfig{});
  const workload::Workload workload = workload::simulation_workload();

  core::ExperimentConfig config;
  config.policy = core::PolicyKind::kAdapt;
  config.replication = 2;
  config.blocks = workload.blocks_for(nodes);
  config.job.gamma = workload.gamma();
  config.job.allow_origin_fetch = false;
  config.seed = seed;
  config.job.churn.enabled = true;
  config.job.churn.departure_rate = hazard;
  config.job.churn.dead_timeout = 120.0;
  config.obs.calibration.enabled = true;
  config.obs.calibration.per_node = true;
  config.obs.sample_dt = 5.0;  // drives the CUSUM + sampling cadence

  const core::ExperimentResult result =
      core::run_experiment(cluster, config);
  const obs::CalibrationSnapshot& cal = result.obs.calibration;

  std::printf("job: %zu nodes, %u blocks, elapsed %s, "
              "%llu departure(s), %llu dead\n",
              nodes, config.blocks,
              common::format_seconds(result.job.elapsed).c_str(),
              static_cast<unsigned long long>(result.job.nodes_departed),
              static_cast<unsigned long long>(result.job.nodes_dead));
  std::printf("calibration: %llu (predicted, realized) pair(s), "
              "cluster ratio %.3f (realized / predicted)\n",
              static_cast<unsigned long long>(cal.pairs), cal.ratio());
  std::printf("realized completion time: p50 %s  p90 %s  p99 %s\n\n",
              common::format_seconds(cal.realized.quantile(0.5)).c_str(),
              common::format_seconds(cal.realized.quantile(0.9)).c_str(),
              common::format_seconds(cal.realized.quantile(0.99)).c_str());

  // Busiest nodes: the most realized completions, predicted vs realized.
  std::vector<std::size_t> order(cal.nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&cal](std::size_t a, std::size_t b) {
    const std::uint64_t ca = cal.nodes[a].realized.count();
    const std::uint64_t cb = cal.nodes[b].realized.count();
    if (ca != cb) return ca > cb;
    return cal.nodes[a].node < cal.nodes[b].node;
  });
  common::Table table({"node", "tasks", "predicted E[T] (s)",
                       "realized p50 (s)", "realized p90 (s)", "ratio"});
  const std::size_t shown = std::min<std::size_t>(10, order.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const obs::NodeCalibration& nc = cal.nodes[order[i]];
    const double pred = nc.predicted;
    const double real = nc.realized.mean();
    table.add_row({std::to_string(nc.node),
                   std::to_string(nc.realized.count()),
                   common::format_double(pred, 1),
                   common::format_double(nc.realized.quantile(0.5), 1),
                   common::format_double(nc.realized.quantile(0.9), 1),
                   common::format_double(pred > 0 ? real / pred : 0.0, 2)});
  }
  std::printf("busiest %zu of %zu node(s) with completions:\n%s", shown,
              cal.nodes.size(), table.to_string().c_str());

  if (cal.alarms.empty()) {
    std::printf("\nno drift alarms (no departure drifted the estimates "
                "past the CUSUM threshold before the job finished)\n");
    return 0;
  }
  common::Table drift({"node", "alarm at (s)", "score",
                       "detection latency (s)"});
  for (const obs::DriftAlarm& alarm : cal.alarms) {
    drift.add_row({std::to_string(alarm.node),
                   common::format_double(alarm.t, 0),
                   common::format_double(alarm.score, 2),
                   alarm.latency >= 0.0
                       ? common::format_double(alarm.latency, 0)
                       : std::string("false alarm")});
  }
  std::printf("\npredictor drift alarms (CUSUM over heartbeat "
              "estimates vs ground truth):\n%s",
              drift.to_string().c_str());
  return 0;
}
