#include "core/adapt.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "obs/lineage.h"
#include "placement/adapt_policy.h"
#include "placement/jump_hash_policy.h"
#include "placement/naive_policy.h"
#include "placement/random_policy.h"
#include "sim/injector.h"

namespace adapt::core {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRandom:
      return "random";
    case PolicyKind::kAdapt:
      return "adapt";
    case PolicyKind::kNaive:
      return "naive";
    case PolicyKind::kJump:
      return "jump";
  }
  return "?";
}

placement::PolicyPtr make_policy(
    PolicyKind kind, const std::vector<avail::InterruptionParams>& params,
    double gamma, std::uint64_t blocks, placement::ChainWeighting weighting,
    avail::TaskTimeCache* task_times, obs::SpanProfiler* spans,
    common::Seconds now, const cluster::FaultDomains* domains) {
  switch (kind) {
    case PolicyKind::kRandom:
      return placement::make_random_policy(params.size());
    case PolicyKind::kAdapt: {
      if (spans != nullptr) spans->begin("predict", now);
      std::vector<double> expected =
          avail::expected_task_times(params, gamma, task_times);
      if (spans != nullptr) {
        spans->end(now);
        spans->begin("hash_table_build", now);
      }
      placement::PolicyPtr policy =
          placement::make_adapt_policy(std::move(expected), blocks, weighting);
      if (spans != nullptr) spans->end(now);
      return policy;
    }
    case PolicyKind::kNaive:
      return placement::make_naive_policy(params, blocks, weighting);
    case PolicyKind::kJump: {
      std::vector<cluster::NodeIndex> order;
      if (domains != nullptr && !domains->empty()) {
        order = domains->domain_major_order();
      } else {
        order.resize(params.size());
        for (std::size_t i = 0; i < params.size(); ++i) {
          order[i] = static_cast<cluster::NodeIndex>(i);
        }
      }
      return placement::make_jump_hash_policy(std::move(order));
    }
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

namespace {

// `filter` narrowed to the nodes `keep` admits.
void narrow(hdfs::NameNode::NodeFilter& filter,
            hdfs::NameNode::NodeFilter keep) {
  filter = [prev = std::move(filter),
            keep = std::move(keep)](cluster::NodeIndex node) {
    return keep(node) && (!prev || prev(node));
  };
}

// The set-up a run and a stream share, built once: the NameNode side of
// paper Fig. 2. The Performance Predictor's Eq. 5 quotes and the Data
// Block Distributor's Algorithm 1 policy are priced with the cluster's
// (lambda, mu); the NameNode loads the dataset once; and every job of
// the run writes to the sinks owned here. Single-threaded by design, so
// runs parallelized by the ExperimentRunner never share state.
class Setup {
 public:
  Setup(const cluster::Cluster& cluster, const SetupConfig& config);

  // copyFromLocal of the dataset at t = 0 onto the nodes `filter` admits
  // (all when null) that are present: a late joiner is absent at load.
  hdfs::FileId load(hdfs::NameNode::NodeFilter filter,
                    hdfs::TransferSummary* summary);
  // What the sinks collected over the run.
  obs::RunObservations collect();

  std::string policy_name() const { return policy_->name(); }

  hdfs::NameNode namenode;
  // The config every job starts from: the caller's template with the
  // sinks, sample_dt, quotes and churn defaults filled in.
  sim::SimJobConfig job;

 private:
  const cluster::Cluster& cluster_;
  const SetupConfig& config_;
  std::unique_ptr<obs::EventTracer> tracer_;
  std::unique_ptr<obs::LineageIndex> lineage_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::SpanProfiler> spans_;
  std::unique_ptr<obs::CalibrationTracker> calibration_;
  placement::PolicyPtr policy_;
  placement::PolicyPtr random_;
  std::vector<double> quotes_;
};

Setup::Setup(const cluster::Cluster& cluster, const SetupConfig& config)
    : namenode(cluster.size(), {.fidelity_cap = config.fidelity_cap}),
      job(config.job),
      cluster_(cluster),
      config_(config) {
  if (config.blocks == 0) {
    throw std::invalid_argument("setup: blocks must be set");
  }
  if (config.job.rebalance.enabled && config.obs.sample_dt <= 0.0) {
    throw std::invalid_argument(
        "setup: the rebalance loop needs obs.sample_dt > 0 (drift alarms "
        "fire from the sampling tick)");
  }
  const std::vector<avail::InterruptionParams> params = cluster.params();

  // Fault-domain hierarchy shared by the policy builder (jump ring
  // order), the NameNode (anti-affinity, revive trim) and the churn
  // defaults (domain bursts). Empty on flat clusters — everything stays
  // inert.
  const auto domains = std::make_shared<const cluster::FaultDomains>(
      cluster::FaultDomains::from_cluster(cluster));
  if (!domains->empty()) {
    namenode.set_fault_domains(domains, config.domain_anti_affinity);
  }

  if (config.obs.trace || config.obs.lineage) {
    tracer_ = std::make_unique<obs::EventTracer>(config.obs.ring_capacity);
    // The lineage index rides the tracer as a streaming sink, so it sees
    // every record even when the ring overwrites.
    if (config.obs.lineage) {
      lineage_ = std::make_unique<obs::LineageIndex>();
      tracer_->set_sink(lineage_.get());
    }
  }
  if (config.obs.metrics || config.obs.sample_dt > 0.0) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  if (config.obs.spans) spans_ = std::make_unique<obs::SpanProfiler>();
  if (config.obs.calibration.enabled || config.job.rebalance.enabled) {
    obs::CalibrationOptions options = config.obs.calibration;
    options.enabled = true;  // the drift loop needs the tracker regardless
    calibration_ = std::make_unique<obs::CalibrationTracker>(options);
  }

  if (spans_) spans_->begin("policy_build", 0.0);
  policy_ = make_policy(config.policy, params, config.job.gamma,
                        config.blocks, config.weighting,
                        /*task_times=*/nullptr, spans_.get(), 0.0,
                        domains.get());
  random_ = placement::make_random_policy(cluster.size());
  if (spans_) spans_->end(0.0);

  // The E[T_i] quotes the placement policy saw. Calibration, the
  // placement records and the calibrated scheduler each pin them, so
  // "overdue" means "slower than what placement paid for".
  const bool quote_scheduler =
      config.job.scheduler.kind == sim::SchedulerKind::kCalibrated &&
      config.job.scheduler.node_quotes.empty();
  if (calibration_ || tracer_ || quote_scheduler) {
    quotes_ = avail::expected_task_times(params, config.job.gamma);
  }
  if (calibration_) {
    calibration_->set_predictions(quotes_);
    // Drift is measured against the beliefs placement was priced with:
    // after a regime shift the heartbeat estimates walk away from them
    // and the CUSUM trips.
    std::vector<double> lambda(params.size());
    std::vector<double> mu(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      lambda[i] = params[i].lambda;
      mu[i] = params[i].mu;
    }
    calibration_->set_reference(std::move(lambda), std::move(mu));
  }
  if (quote_scheduler) job.scheduler.node_quotes = quotes_;

  job.tracer = tracer_.get();
  job.metrics = metrics_.get();
  job.spans = spans_.get();
  job.calibration = calibration_.get();
  job.sample_dt = config.obs.sample_dt;

  // Churn defaults: the node -> fault-domain map the injector's
  // per-domain burst needs, and a recovery / rebalance destination
  // policy rebuilt as `config.policy` from the heartbeat collector's
  // live estimates. All rebuilds share one Eq. 5 memo table: estimates
  // for nodes whose beliefs did not move hit the cache.
  sim::SimJobConfig::ChurnConfig& churn = job.churn;
  if (!churn.enabled) return;
  if (churn.domain_of.empty() && !domains->empty()) {
    churn.domain_of = domains->domains_of_nodes();
  }
  if (churn.policy_factory) return;
  const auto task_times = std::make_shared<avail::TaskTimeCache>();
  churn.policy_factory =
      [kind = config.policy, gamma = config.job.gamma, blocks = config.blocks,
       weighting = config.weighting, task_times,
       domains](const std::vector<avail::InterruptionParams>& estimates) {
        return make_policy(kind, estimates, gamma, blocks, weighting,
                           task_times.get(), /*spans=*/nullptr,
                           /*now=*/0.0, domains.get());
      };
}

hdfs::FileId Setup::load(hdfs::NameNode::NodeFilter filter,
                         hdfs::TransferSummary* summary) {
  const std::vector<common::Seconds>& joins = job.churn.join_at;
  if (job.churn.enabled && !joins.empty()) {
    narrow(filter, [&joins](cluster::NodeIndex node) {
      return !(node < joins.size() && joins[node] > 0.0);
    });
  }
  cluster::Network network(cluster_.network_config());
  hdfs::Client client(namenode, random_, policy_, &network,
                      cluster_.block_size_bytes);
  if (tracer_) {
    client.set_tracer(tracer_.get());
    // Each placement record carries the quote its node was priced with,
    // so a replica's chain starts with the policy's own expectation.
    client.set_quotes(quotes_);
  }
  common::Rng rng = common::Rng(config_.seed).fork(0x91ac);
  if (spans_) spans_->begin("load", 0.0);
  const hdfs::FileId file = client.copy_from_local(
      "input", config_.blocks, config_.replication, /*adapt_enabled=*/true,
      rng, /*now=*/0.0, summary, filter);
  if (spans_) spans_->end(0.0);
  return file;
}

obs::RunObservations Setup::collect() {
  obs::RunObservations out;
  if (config_.obs.trace) {
    out.dropped = tracer_->dropped();
    out.records = tracer_->take_records();
  }
  if (lineage_) {
    out.lineage = std::make_shared<const obs::LineageSnapshot>(
        lineage_->take_snapshot());
  }
  if (metrics_) {
    out.metrics = metrics_->snapshot();
    out.timeseries = metrics_->take_timeseries();
  }
  if (spans_) out.spans = spans_->take_records();
  if (calibration_) out.calibration = calibration_->take_snapshot();
  return out;
}

}  // namespace

ExperimentResult run_experiment(const cluster::Cluster& cluster,
                                const ExperimentConfig& config) {
  Setup setup(cluster, config);
  sim::SimJobConfig& job = setup.job;
  job.seed = config.seed;

  // For trace-replay clusters, fix the per-node replay offsets up front
  // so the load can be placed on the nodes actually up at job start
  // (copyFromLocal only writes to live DataNodes).
  hdfs::NameNode::NodeFilter filter;
  bool has_replay = false;
  for (const cluster::NodeSpec& node : cluster.nodes) {
    has_replay = has_replay ||
                 node.mode == cluster::AvailabilityMode::kReplay;
  }
  if (has_replay) {
    common::Rng offset_rng = common::Rng(config.seed).fork(0x0ff5);
    common::Seconds horizon = cluster.replay_horizon;
    if (horizon <= 0) {
      for (const cluster::NodeSpec& node : cluster.nodes) {
        for (const trace::DownInterval& iv : node.down_intervals) {
          horizon = std::max(horizon, iv.up);
        }
      }
    }
    job.replay_horizon = horizon;
    job.replay_offsets =
        sim::draw_replay_offsets(cluster.nodes, horizon, offset_rng);
    filter = [&cluster, &job](cluster::NodeIndex node) {
      return sim::replay_up_at(cluster.nodes[node], job.replay_offsets[node]);
    };
  }
  if (config.steady_state_start) {
    common::Rng init_rng = common::Rng(config.seed).fork(0x57a7);
    job.initial_down_until = sim::draw_initial_down(cluster.nodes, init_rng);
    narrow(filter, [&job](cluster::NodeIndex node) {
      return !(job.initial_down_until[node] > 0.0);
    });
  }

  ExperimentResult result;
  result.policy_name = setup.policy_name();
  const hdfs::FileId file = setup.load(std::move(filter), &result.load);

  result.distribution = setup.namenode.file_distribution(file);
  const std::uint64_t max_blocks =
      *std::max_element(result.distribution.begin(),
                        result.distribution.end());
  const double mean_blocks =
      static_cast<double>(config.blocks) *
      static_cast<double>(config.replication) /
      static_cast<double>(cluster.size());
  result.placement_skew =
      mean_blocks > 0 ? static_cast<double>(max_blocks) / mean_blocks : 0.0;

  if (config.run_reduce) job.record_completion_times = true;
  sim::MapReduceSimulation simulation(cluster, setup.namenode, file, job);
  obs::SpanProfiler* spans = job.spans;
  if (spans) spans->begin("map_phase", 0.0);
  result.job = simulation.run();
  if (spans) spans->end(result.job.elapsed);

  if (config.run_reduce) {
    sim::ReduceConfig reduce = config.reduce;
    reduce.gamma_map = config.job.gamma;
    if (reduce.availability_aware) reduce.params = cluster.params();
    reduce.seed = config.seed ^ 0xf00d;
    reduce.replay_horizon = job.replay_horizon;
    reduce.replay_offsets = job.replay_offsets;
    reduce.initial_down_until = job.initial_down_until;
    sim::ReducePhaseSimulation reducer(cluster, result.job.winner_nodes,
                                       reduce);
    if (spans) spans->begin("reduce_phase", result.job.elapsed);
    result.reduce = reducer.run();
    if (spans) {
      spans->end(result.job.elapsed + result.reduce.elapsed);
    }
  }

  result.obs = setup.collect();
  return result;
}

JobStreamResult run_job_stream(const cluster::Cluster& initial,
                               const cluster::Cluster& shifted,
                               const JobStreamConfig& config) {
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

  // Load once, at t = 0, under the initial regime's beliefs.
  Setup setup(initial, config);
  JobStreamResult result;
  result.policy_name = setup.policy_name();
  const hdfs::FileId file = setup.load(/*filter=*/nullptr, &result.load);
  obs::SpanProfiler* spans = setup.job.spans;

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
    for (std::size_t n = 0; n < setup.namenode.node_count(); ++n) {
      const auto node = static_cast<cluster::NodeIndex>(n);
      if (setup.namenode.is_dead(node)) setup.namenode.revive_node(node);
    }
    job_seed = job_seed * 6364136223846793005ull + 1442695040888963407ull;
    sim::SimJobConfig job_config = setup.job;
    job_config.seed = job_seed;
    sim::MapReduceSimulation simulation(regime, setup.namenode, file,
                                        job_config);
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
  result.obs = setup.collect();
  result.calibration_ratio = result.obs.calibration.ratio();
  return result;
}

RepeatedResult merge_results(const std::vector<ExperimentResult>& results) {
  if (results.empty()) {
    throw std::invalid_argument("merge_results: no runs");
  }
  std::vector<double> elapsed;
  std::vector<double> locality;
  elapsed.reserve(results.size());
  locality.reserve(results.size());
  RepeatedResult out;
  for (const ExperimentResult& result : results) {
    elapsed.push_back(result.job.elapsed);
    locality.push_back(result.job.locality);
    out.rework_ratio += result.job.overhead.rework_ratio();
    out.recovery_ratio += result.job.overhead.recovery_ratio();
    out.migration_ratio += result.job.overhead.migration_ratio();
    out.misc_ratio += result.job.overhead.misc_ratio();
    out.total_ratio += result.job.overhead.total_ratio();
    out.policy_name = result.policy_name;
    out.failed_runs += result.job.failed ? 1 : 0;
    out.nodes_departed += result.job.nodes_departed;
    out.nodes_dead += result.job.nodes_dead;
    out.blocks_lost += result.job.blocks_lost;
    out.tasks_lost += result.job.tasks_lost;
    out.rereplications += result.job.rereplications;
    out.rereplication_giveups += result.job.rereplication_giveups;
    out.rereplication_bytes += result.job.rereplication_bytes;
    out.heartbeats_lost += result.job.heartbeats_lost;
    out.false_dead_declarations += result.job.false_dead_declarations;
    out.replicas_corrupted += result.job.replicas_corrupted;
    out.corrupt_reads += result.job.corrupt_reads;
    out.safe_mode_entries += result.job.safe_mode_entries;
    out.speculative_launches += result.job.speculative_launches;
    out.speculative_wins += result.job.speculative_wins;
    out.redundant_launches += result.job.redundant_launches;
    out.redundant_waste_bytes += result.job.redundant_waste_bytes;
  }
  const double n = static_cast<double>(results.size());
  out.rework_ratio /= n;
  out.recovery_ratio /= n;
  out.migration_ratio /= n;
  out.misc_ratio /= n;
  out.total_ratio /= n;
  out.elapsed = common::summarize(std::move(elapsed));
  out.locality = common::summarize(std::move(locality));
  return out;
}

}  // namespace adapt::core
