// Public facade: run a complete ADAPT experiment — build a policy from
// availability knowledge, load a dataset into the mini-HDFS, simulate
// the map phase on the volatile cluster, report the paper's metrics.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto cluster = adapt::cluster::emulated_cluster({.node_count = 128});
//   adapt::core::ExperimentConfig config;
//   config.policy = adapt::core::PolicyKind::kAdapt;
//   config.replication = 1;
//   config.blocks = 2560;
//   config.job.gamma = 8.0;
//   auto result = adapt::core::run_experiment(cluster, config);
//   std::cout << result.job.elapsed << "\n";
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "availability/predictor.h"
#include "cluster/fault_domains.h"
#include "cluster/heartbeat.h"
#include "cluster/topology.h"
#include "common/stats.h"
#include "hdfs/client.h"
#include "obs/trace.h"
#include "placement/hash_table.h"
#include "placement/policy.h"
#include "sim/mapreduce_sim.h"
#include "sim/reduce_phase.h"

namespace adapt::core {

enum class PolicyKind { kRandom, kAdapt, kNaive, kJump };

std::string to_string(PolicyKind kind);

// Build the placement policy a PolicyKind denotes.
// `params` are per-node interruption parameters (ground truth or
// heartbeat estimates), `gamma` the predicted failure-free task length,
// `blocks` the table size m. `task_times` optionally memoizes Eq. 5
// evaluations across calls — repeated policy rebuilds (churn recovery)
// pass one cache so unchanged (lambda, mu) profiles skip the expm1.
// With a SpanProfiler the Eq. 5 evaluation ("predict") and the weighted
// hash-table construction ("hash_table_build") are profiled as nested
// spans stamped with `now` (setup runs between sim events, so its
// simulated duration is zero; host time carries the real cost).
// `domains` (optional) supplies the fault-domain hierarchy: kJump
// orders its consistent-hash ring domain-major with it so consecutive
// ring positions straddle racks; the availability-driven kinds ignore it
// (anti-affinity is applied by the NameNode's eligibility mask, not the
// policy).
placement::PolicyPtr make_policy(
    PolicyKind kind, const std::vector<avail::InterruptionParams>& params,
    double gamma, std::uint64_t blocks,
    placement::ChainWeighting weighting = placement::ChainWeighting::kPaper,
    avail::TaskTimeCache* task_times = nullptr,
    obs::SpanProfiler* spans = nullptr, common::Seconds now = 0.0,
    const cluster::FaultDomains* domains = nullptr);

// Churn defaults a run fills from its layout unless the caller supplied
// them: the node -> fault-domain map the injector's per-domain burst
// needs, and a recovery / rebalance destination policy factory that
// rebuilds `kind` from the heartbeat collector's live estimates, so
// recovery placement stays availability-aware as beliefs evolve. All
// rebuilds share one Eq. 5 memo table: estimates for nodes whose beliefs
// did not move hit the cache. No-op when churn is off.
void fill_churn_defaults(
    sim::SimJobConfig::ChurnConfig& churn, PolicyKind kind, double gamma,
    std::uint64_t blocks, placement::ChainWeighting weighting,
    std::shared_ptr<const cluster::FaultDomains> domains);

struct ExperimentConfig {
  PolicyKind policy = PolicyKind::kAdapt;
  int replication = 1;
  std::uint32_t blocks = 0;  // m; must be set
  bool fidelity_cap = true;  // Section IV-C threshold m(k+1)/n
  // Cross-domain anti-affinity: when the cluster has a DomainLayout,
  // every replica draw (load, re-replication, migration, rebalance)
  // excludes domains already holding a copy of the block. Inert on flat
  // clusters (sites == 0), keeping their runs byte-identical.
  bool domain_anti_affinity = false;
  placement::ChainWeighting weighting = placement::ChainWeighting::kPaper;
  sim::SimJobConfig job;

  // When true, the Performance Predictor learns (lambda, mu) from a
  // heartbeat-observation window instead of receiving ground truth —
  // the full NameNode pipeline of paper Fig. 2.
  bool use_estimated_params = false;
  common::Seconds observation_window = 600.0;

  // Model-driven clusters: start each node in its steady state (down
  // with probability rho, mid-residual-outage) and place data only on
  // the nodes up at load time, the way a real copyFromLocal would. Off
  // reproduces the emulation setting (data loaded on a healthy cluster,
  // interruptions injected afterwards).
  bool steady_state_start = false;

  // Extension (paper future work): also simulate the shuffle + reduce
  // phase after the map phase. reduce.params / replay plumbing are
  // filled in by run_experiment; set the rest as desired.
  bool run_reduce = false;
  sim::ReduceConfig reduce;
  // Availability-aware reducer placement uses the same (lambda, mu)
  // knowledge as the map-side policy when enabled.
  bool reduce_availability_aware = false;

  std::uint64_t seed = 1;

  // Observability: when obs.enabled(), run_experiment owns a tracer and
  // metrics registry for the run and returns what they collected in
  // ExperimentResult::obs.
  obs::Options obs;
};

struct ExperimentResult {
  sim::JobResult job;
  hdfs::TransferSummary load;              // copyFromLocal cost
  std::vector<std::uint64_t> distribution; // replicas per node
  double placement_skew = 0.0;             // max/mean replicas per node
  std::string policy_name;
  // Filled when ExperimentConfig::run_reduce is set.
  sim::ReduceResult reduce;
  // Filled when ExperimentConfig::obs is enabled.
  obs::RunObservations obs;
};

ExperimentResult run_experiment(const cluster::Cluster& cluster,
                                const ExperimentConfig& config);

// Observe the cluster's availability through a heartbeat collector for
// `window` simulated seconds and return the per-node estimates — what
// the NameNode would know instead of ground truth.
std::vector<avail::InterruptionParams> observe_cluster(
    const cluster::Cluster& cluster, common::Seconds window,
    std::uint64_t seed,
    cluster::HeartbeatCollector::Config heartbeat = {});

// The paper averages ten runs per point; this mirrors that.
struct RepeatedResult {
  common::Summary elapsed;
  common::Summary locality;
  // Mean overhead ratios across runs.
  double rework_ratio = 0.0;
  double recovery_ratio = 0.0;
  double migration_ratio = 0.0;
  double misc_ratio = 0.0;
  double total_ratio = 0.0;
  std::string policy_name;
  // Churn & recovery totals across runs (all zero on churn-free sweeps).
  std::uint64_t failed_runs = 0;
  std::uint64_t nodes_departed = 0;
  std::uint64_t nodes_dead = 0;
  std::uint64_t blocks_lost = 0;
  std::uint64_t tasks_lost = 0;
  std::uint64_t rereplications = 0;
  std::uint64_t rereplication_giveups = 0;
  std::uint64_t rereplication_bytes = 0;
  // Gray-failure totals across runs (all zero with the gray knobs off).
  std::uint64_t heartbeats_lost = 0;
  std::uint64_t false_dead_declarations = 0;
  std::uint64_t replicas_corrupted = 0;
  std::uint64_t corrupt_reads = 0;
  std::uint64_t safe_mode_entries = 0;
  // Scheduler totals across runs (all zero when no duplicate attempts
  // were launched).
  std::uint64_t speculative_launches = 0;
  std::uint64_t speculative_wins = 0;
  std::uint64_t redundant_launches = 0;
  std::uint64_t redundant_waste_bytes = 0;
};

// Aggregate per-run results (in run order) into the paper's per-point
// result. Throws std::invalid_argument on an empty list.
RepeatedResult merge_results(const std::vector<ExperimentResult>& results);

// `runs` sequential runs whose seeds follow an LCG chain from
// config.seed, merged.
RepeatedResult run_repeated(const cluster::Cluster& cluster,
                            ExperimentConfig config, int runs);

}  // namespace adapt::core
