#include "core/job_stream.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "availability/predictor.h"
#include "placement/random_policy.h"

namespace adapt::core {

JobStreamResult run_job_stream(const cluster::Cluster& initial,
                               const cluster::Cluster& shifted,
                               const JobStreamConfig& config) {
  if (config.blocks == 0) {
    throw std::invalid_argument("job_stream: blocks must be set");
  }
  if (config.jobs < 1) {
    throw std::invalid_argument("job_stream: jobs must be >= 1");
  }
  if (config.arrival_gap < 0) {
    throw std::invalid_argument("job_stream: arrival_gap must be >= 0");
  }
  const bool shifts =
      config.shift_at_job >= 0 && config.shift_at_job < config.jobs;
  if (shifts && shifted.size() != initial.size()) {
    throw std::invalid_argument(
        "job_stream: shifted regime must keep the node count");
  }
  if (config.job.rebalance.enabled && config.obs.sample_dt <= 0.0) {
    throw std::invalid_argument(
        "job_stream: the rebalance loop needs obs.sample_dt > 0 (drift "
        "alarms fire from the sampling tick)");
  }

  // Sinks are owned here and shared by every job on the stream, so
  // traces / metrics / CUSUM state accumulate across jobs. Each job's
  // event clock restarts at zero; trace timestamps are per-job.
  std::unique_ptr<obs::EventTracer> tracer;
  if (config.obs.trace) {
    tracer = std::make_unique<obs::EventTracer>(config.obs.ring_capacity);
  }
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (config.obs.metrics || config.obs.sample_dt > 0.0) {
    metrics = std::make_unique<obs::MetricsRegistry>();
  }
  std::unique_ptr<obs::SpanProfiler> spans;
  if (config.obs.spans) spans = std::make_unique<obs::SpanProfiler>();
  std::unique_ptr<obs::CalibrationTracker> calibration;
  if (config.obs.calibration.enabled || config.job.rebalance.enabled) {
    obs::CalibrationOptions cal = config.obs.calibration;
    cal.enabled = true;  // the drift loop needs the tracker regardless
    calibration = std::make_unique<obs::CalibrationTracker>(cal);
  }

  // Load once, at t = 0, under the initial regime's beliefs.
  const std::vector<avail::InterruptionParams> params = initial.params();
  const auto domains = std::make_shared<const cluster::FaultDomains>(
      cluster::FaultDomains::from_cluster(initial));
  if (spans) spans->begin("policy_build", 0.0);
  const placement::PolicyPtr policy =
      make_policy(config.policy, params, config.job.gamma, config.blocks,
                  config.weighting, /*task_times=*/nullptr, spans.get(), 0.0,
                  domains.get());
  const placement::PolicyPtr random =
      placement::make_random_policy(initial.size());
  if (spans) spans->end(0.0);

  // The initial regime's Eq. 5 quotes, pinned by calibration and by the
  // calibrated scheduler.
  const bool quote_scheduler =
      config.job.scheduler.kind == sim::SchedulerKind::kCalibrated &&
      config.job.scheduler.node_quotes.empty();
  std::vector<double> quotes;
  if (calibration || quote_scheduler) {
    quotes = avail::expected_task_times(params, config.job.gamma);
  }
  if (calibration) calibration->set_predictions(quotes);

  hdfs::NameNode::Options options;
  options.fidelity_cap = config.fidelity_cap;
  hdfs::NameNode namenode(initial.size(), options);
  if (!domains->empty()) {
    namenode.set_fault_domains(domains, config.domain_anti_affinity);
  }

  cluster::Network load_network(initial.network_config());

  hdfs::Client client(namenode, random, policy, &load_network,
                      initial.block_size_bytes);
  client.set_tracer(tracer.get());

  JobStreamResult result;
  result.policy_name = policy->name();

  common::Rng placement_rng = common::Rng(config.seed).fork(0x91ac);
  if (spans) spans->begin("load", 0.0);
  const hdfs::FileId file = client.copy_from_local(
      "stream-input", config.blocks, config.replication,
      /*adapt_enabled=*/true, placement_rng, /*now=*/0.0, &result.load,
      /*filter=*/nullptr);
  if (spans) spans->end(0.0);

  // Template the per-job config once. Recovery / rebalance placement is
  // rebuilt from live heartbeat estimates through one shared Eq. 5 memo
  // table for the whole stream.
  sim::SimJobConfig job_template = config.job;
  if (quote_scheduler) job_template.scheduler.node_quotes = quotes;
  job_template.tracer = tracer.get();
  job_template.metrics = metrics.get();
  job_template.spans = spans.get();
  job_template.calibration = calibration.get();
  job_template.sample_dt = config.obs.sample_dt;
  // Drift is measured against the *placement-time* beliefs: after the
  // regime shifts these stay pinned to the initial truth, the heartbeat
  // estimates walk away from them, and the CUSUM trips.
  if (calibration) job_template.truth_params = params;
  fill_churn_defaults(job_template.churn, config.policy, config.job.gamma,
                      config.blocks, config.weighting, domains);

  common::Seconds clock = 0.0;
  std::uint64_t job_seed = config.seed;
  result.jobs.reserve(static_cast<std::size_t>(config.jobs));
  for (int j = 0; j < config.jobs; ++j) {
    const cluster::Cluster& regime =
        (shifts && j >= config.shift_at_job) ? shifted : initial;
    // Membership refresh between jobs: a volunteer machine declared dead
    // during the previous job rejoins the pool. Its disk survived the
    // (false) declaration, so the revive acts as a block report — copies
    // still under target are re-registered, refilled blocks shed the
    // excess replica (NameNode::revive_node).
    for (std::size_t n = 0; n < namenode.node_count(); ++n) {
      const auto node = static_cast<cluster::NodeIndex>(n);
      if (namenode.is_dead(node)) namenode.revive_node(node);
    }
    job_seed = job_seed * 6364136223846793005ull + 1442695040888963407ull;
    sim::SimJobConfig job_config = job_template;
    job_config.seed = job_seed;
    sim::MapReduceSimulation simulation(regime, namenode, file, job_config);
    if (spans) spans->begin("stream_job", clock);
    sim::JobResult r = simulation.run();
    if (spans) spans->end(clock + r.elapsed);

    const common::Seconds start = std::max(
        static_cast<common::Seconds>(j) * config.arrival_gap, clock);
    clock = start + r.elapsed;

    result.failed_jobs += r.failed ? 1 : 0;
    result.blocks_lost += r.blocks_lost;
    result.tasks_lost += r.tasks_lost;
    result.rereplications += r.rereplications;
    result.rebalance_triggers += r.rebalance_triggers;
    result.migrations_submitted += r.migrations_submitted;
    result.migrations_committed += r.migrations_committed;
    result.migration_retries += r.migration_retries;
    result.migration_giveups += r.migration_giveups;
    result.migration_bytes += r.migration_bytes;
    result.jobs.push_back(std::move(r));
  }
  result.makespan = clock;

  if (calibration) result.calibration_ratio = calibration->cluster_ratio();
  if (tracer) {
    result.obs.dropped = tracer->dropped();
    result.obs.records = tracer->take_records();
  }
  if (metrics) {
    result.obs.metrics = metrics->snapshot();
    result.obs.timeseries = metrics->take_timeseries();
  }
  if (spans) result.obs.spans = spans->take_records();
  if (calibration) result.obs.calibration = calibration->take_snapshot();
  return result;
}

}  // namespace adapt::core
