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

void fill_churn_defaults(
    sim::SimJobConfig::ChurnConfig& churn, PolicyKind kind, double gamma,
    std::uint64_t blocks, placement::ChainWeighting weighting,
    std::shared_ptr<const cluster::FaultDomains> domains) {
  if (!churn.enabled) return;
  if (churn.domain_of.empty() && !domains->empty()) {
    churn.domain_of = domains->domains_of_nodes();
  }
  if (churn.policy_factory) return;
  const auto task_times = std::make_shared<avail::TaskTimeCache>();
  churn.policy_factory =
      [kind, gamma, blocks, weighting, task_times, domains](
          const std::vector<avail::InterruptionParams>& estimates) {
        return make_policy(kind, estimates, gamma, blocks, weighting,
                           task_times.get(), /*spans=*/nullptr,
                           /*now=*/0.0, domains.get());
      };
}

std::vector<avail::InterruptionParams> observe_cluster(
    const cluster::Cluster& cluster, common::Seconds window,
    std::uint64_t seed, cluster::HeartbeatCollector::Config heartbeat) {
  cluster::HeartbeatCollector collector(cluster.size(), heartbeat);

  // A minimal listener forwarding injector transitions to the collector.
  class Forwarder : public sim::InterruptionInjector::Listener {
   public:
    Forwarder(cluster::HeartbeatCollector& collector, sim::EventQueue& queue)
        : collector_(collector), queue_(queue) {}
    void on_node_down(cluster::NodeIndex node) override {
      collector_.notify_down(node, queue_.now());
    }
    void on_node_up(cluster::NodeIndex node) override {
      collector_.notify_up(node, queue_.now());
    }

   private:
    cluster::HeartbeatCollector& collector_;
    sim::EventQueue& queue_;
  };

  sim::EventQueue queue;
  Forwarder forwarder(collector, queue);
  sim::InterruptionInjector injector(queue, cluster.nodes, forwarder,
                                     common::Rng(seed).fork(0x0b5e));
  injector.start();
  queue.run_until([&] { return queue.now() >= window; });
  return collector.estimates(window);
}

ExperimentResult run_experiment(const cluster::Cluster& cluster,
                                const ExperimentConfig& config) {
  if (config.blocks == 0) {
    throw std::invalid_argument("experiment: blocks must be set");
  }

  const std::vector<avail::InterruptionParams> params =
      config.use_estimated_params
          ? observe_cluster(cluster, config.observation_window, config.seed)
          : cluster.params();

  // Fault-domain hierarchy shared by the policy builder (jump ring
  // order), the NameNode (anti-affinity, revive trim) and the injector
  // (domain bursts). Empty on flat clusters — everything stays inert.
  const auto domains = std::make_shared<const cluster::FaultDomains>(
      cluster::FaultDomains::from_cluster(cluster));

  // One observability sink of each kind per run, owned here;
  // single-threaded by design, so runs parallelized by the
  // ExperimentRunner never share state.
  std::unique_ptr<obs::SpanProfiler> spans;
  if (config.obs.spans) spans = std::make_unique<obs::SpanProfiler>();
  std::unique_ptr<obs::CalibrationTracker> calibration;
  if (config.obs.calibration.enabled) {
    calibration =
        std::make_unique<obs::CalibrationTracker>(config.obs.calibration);
  }

  if (spans) spans->begin("policy_build", 0.0);
  const placement::PolicyPtr policy = make_policy(
      config.policy, params, config.job.gamma, config.blocks,
      config.weighting, /*task_times=*/nullptr, spans.get(), 0.0,
      domains.get());
  const placement::PolicyPtr random =
      placement::make_random_policy(cluster.size());
  if (spans) spans->end(0.0);

  // The E[T_i] quotes the placement policy saw: the predictor's view of
  // the same `params` (ground truth or heartbeat estimates) at placement
  // time. Calibration, the placement records and the calibrated
  // scheduler each pin them.
  const bool quote_scheduler =
      config.job.scheduler.kind == sim::SchedulerKind::kCalibrated &&
      config.job.scheduler.node_quotes.empty();
  std::vector<double> quotes;
  if (calibration || config.obs.trace || config.obs.lineage ||
      quote_scheduler) {
    quotes = avail::expected_task_times(params, config.job.gamma);
  }
  if (calibration) calibration->set_predictions(quotes);

  hdfs::NameNode::Options options;
  options.fidelity_cap = config.fidelity_cap;
  hdfs::NameNode namenode(cluster.size(), options);
  if (!domains->empty()) {
    namenode.set_fault_domains(domains, config.domain_anti_affinity);
  }

  cluster::Network load_network(cluster.network_config());

  hdfs::Client client(namenode, random, policy, &load_network,
                      cluster.block_size_bytes);

  ExperimentResult result;
  result.policy_name = policy->name();

  // One tracer/registry per run, owned here; single-threaded by design,
  // so runs parallelized by the ExperimentRunner never share state.
  // The lineage index rides the tracer as a streaming sink, so it sees
  // every record even when the ring overwrites.
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::LineageIndex> lineage;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (config.obs.trace || config.obs.lineage) {
    tracer = std::make_unique<obs::EventTracer>(config.obs.ring_capacity);
    client.set_tracer(tracer.get());
    if (config.obs.lineage) {
      lineage = std::make_unique<obs::LineageIndex>();
      tracer->set_sink(lineage.get());
    }
    // Pin the Eq. 5 quote each placement decision was priced with onto
    // its placement record, so a replica's chain starts with the
    // policy's own expectation.
    client.set_quotes(quotes);
  }
  if (config.obs.metrics || config.obs.sample_dt > 0.0) {
    metrics = std::make_unique<obs::MetricsRegistry>();
  }

  // For trace-replay clusters, fix the per-node replay offsets up front
  // so the load can be placed on the nodes actually up at job start
  // (copyFromLocal only writes to live DataNodes).
  sim::SimJobConfig job_config = config.job;
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
    job_config.replay_horizon = horizon;
    job_config.replay_offsets =
        sim::draw_replay_offsets(cluster.nodes, horizon, offset_rng);
    auto initially_up = std::make_shared<std::vector<bool>>();
    initially_up->reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      initially_up->push_back(
          sim::replay_up_at(cluster.nodes[i], job_config.replay_offsets[i]));
    }
    filter = [initially_up](cluster::NodeIndex node) {
      return (*initially_up)[node];
    };
  }
  if (config.steady_state_start) {
    common::Rng init_rng = common::Rng(config.seed).fork(0x57a7);
    job_config.initial_down_until =
        sim::draw_initial_down(cluster.nodes, init_rng);
    auto down = std::make_shared<std::vector<common::Seconds>>(
        job_config.initial_down_until);
    auto prev = filter;
    filter = [down, prev](cluster::NodeIndex node) {
      if ((*down)[node] > 0.0) return false;
      return !prev || prev(node);
    };
  }
  fill_churn_defaults(job_config.churn, config.policy, config.job.gamma,
                      config.blocks, config.weighting, domains);
  // A late joiner is absent at load time: copyFromLocal cannot write to
  // it.
  if (job_config.churn.enabled && !job_config.churn.join_at.empty()) {
    auto joins = std::make_shared<std::vector<common::Seconds>>(
        job_config.churn.join_at);
    auto prev = filter;
    filter = [joins, prev](cluster::NodeIndex node) {
      if (node < joins->size() && (*joins)[node] > 0.0) return false;
      return !prev || prev(node);
    };
  }

  common::Rng placement_rng = common::Rng(config.seed).fork(0x91ac);
  if (spans) spans->begin("load", 0.0);
  const hdfs::FileId file = client.copy_from_local(
      "input", config.blocks, config.replication,
      /*adapt_enabled=*/true, placement_rng, /*now=*/0.0, &result.load,
      filter);
  if (spans) spans->end(0.0);

  result.distribution = namenode.file_distribution(file);
  const std::uint64_t max_blocks =
      *std::max_element(result.distribution.begin(),
                        result.distribution.end());
  const double mean_blocks =
      static_cast<double>(config.blocks) *
      static_cast<double>(config.replication) /
      static_cast<double>(cluster.size());
  result.placement_skew =
      mean_blocks > 0 ? static_cast<double>(max_blocks) / mean_blocks : 0.0;

  // The calibrated scheduler's quotes are the ones placement priced
  // nodes with, so "overdue" means "slower than what placement paid for".
  if (quote_scheduler) job_config.scheduler.node_quotes = quotes;

  if (config.run_reduce) job_config.record_completion_times = true;
  job_config.tracer = tracer.get();
  job_config.metrics = metrics.get();
  job_config.spans = spans.get();
  job_config.calibration = calibration.get();
  job_config.sample_dt = config.obs.sample_dt;
  if (calibration) job_config.truth_params = cluster.params();
  sim::MapReduceSimulation simulation(cluster, namenode, file, job_config);
  if (spans) spans->begin("map_phase", 0.0);
  result.job = simulation.run();
  if (spans) spans->end(result.job.elapsed);

  if (config.run_reduce) {
    sim::ReduceConfig reduce = config.reduce;
    reduce.gamma_map = config.job.gamma;
    reduce.availability_aware = config.reduce_availability_aware;
    if (reduce.availability_aware) reduce.params = params;
    reduce.seed = config.seed ^ 0xf00d;
    reduce.replay_horizon = job_config.replay_horizon;
    reduce.replay_offsets = job_config.replay_offsets;
    reduce.initial_down_until = job_config.initial_down_until;
    sim::ReducePhaseSimulation reducer(cluster, result.job.winner_nodes,
                                       reduce);
    if (spans) spans->begin("reduce_phase", result.job.elapsed);
    result.reduce = reducer.run();
    if (spans) {
      spans->end(result.job.elapsed + result.reduce.elapsed);
    }
  }

  if (tracer && config.obs.trace) {
    result.obs.dropped = tracer->dropped();
    result.obs.records = tracer->take_records();
  }
  if (lineage) {
    result.obs.lineage = std::make_shared<const obs::LineageSnapshot>(
        lineage->take_snapshot());
  }
  if (metrics) {
    result.obs.metrics = metrics->snapshot();
    result.obs.timeseries = metrics->take_timeseries();
  }
  if (spans) result.obs.spans = spans->take_records();
  if (calibration) result.obs.calibration = calibration->take_snapshot();
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

RepeatedResult run_repeated(const cluster::Cluster& cluster,
                            ExperimentConfig config, int runs) {
  if (runs < 1) throw std::invalid_argument("run_repeated: runs must be >= 1");
  std::vector<ExperimentResult> results;
  results.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    config.seed = config.seed * 6364136223846793005ull + 1442695040888963407ull;
    config.job.seed = config.seed;
    results.push_back(run_experiment(cluster, config));
  }
  return merge_results(results);
}

}  // namespace adapt::core
