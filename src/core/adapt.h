// Public facade: run a complete ADAPT experiment — build a policy from
// availability knowledge, load a dataset into the mini-HDFS, simulate
// the map phase on the volatile cluster, report the paper's metrics —
// or a stream of jobs over one such dataset (run_job_stream).
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
#include <string>
#include <vector>

#include "availability/predictor.h"
#include "cluster/fault_domains.h"
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

// What run_experiment and run_job_stream share: how the dataset is
// placed, the template every job starts from, the seed and the
// observability options. Both entry points run the same set-up from it
// once: the sinks, the Algorithm 1 policy and Eq. 5 quotes over the
// cluster's (lambda, mu), the NameNode and the load.
struct SetupConfig {
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
  // Template for every job. The set-up fills in the sinks and
  // sample_dt and, unless the caller supplied them, the calibrated
  // scheduler's quotes and the churn defaults: the node ->
  // domain map, and a recovery / rebalance policy rebuilt as `policy`
  // from the heartbeat estimates through one Eq. 5 memo. `job.seed` is
  // not read: run_experiment seeds its simulation with `seed`, and
  // run_job_stream derives each job's seed from it.
  sim::SimJobConfig job;
  std::uint64_t seed = 1;
  // Observability: the set-up owns one tracer, registry, profiler and
  // calibration tracker per run or stream (the tracker also whenever
  // the rebalance loop is on, which needs obs.sample_dt > 0) and
  // returns what they collected.
  obs::Options obs;
};

struct ExperimentConfig : SetupConfig {
  // Model-driven clusters: start each node in its steady state (down
  // with probability rho, mid-residual-outage) and place data only on
  // the nodes up at load time, the way a real copyFromLocal would. Off
  // reproduces the emulation setting (data loaded on a healthy cluster,
  // interruptions injected afterwards).
  bool steady_state_start = false;

  // Extension (paper future work): also simulate the shuffle + reduce
  // phase after the map phase. reduce.params (when availability_aware)
  // and the replay plumbing are filled in by run_experiment; set the
  // rest as desired.
  bool run_reduce = false;
  sim::ReduceConfig reduce;
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

// Continuous open-loop workload: a stream of map jobs arriving against
// ONE persistent mini-HDFS. The dataset is placed once, at t = 0, under
// the initial availability regime; every job then reads the same file,
// and whatever churn, data loss, re-replication and rebalancing happened
// during job j is the starting state of job j+1.
//
// The availability regime can shift mid-stream (`shift_at_job`): jobs
// from that index on run against a *different* cluster truth while the
// placement still reflects the original beliefs. With the drift loop on
// (SimJobConfig::rebalance) the CUSUM alarms re-estimate (lambda, mu),
// rebuild the Algorithm-1 weights and migrate the badly-placed replicas;
// with it off the stale placement just keeps paying for the shift. The
// bench_rebalance sweep measures that difference.
struct JobStreamConfig : SetupConfig {
  // Open-loop arrival process: job j is submitted at j * arrival_gap and
  // starts as soon as its predecessor finished (FIFO, one job at a
  // time — map-slot contention across jobs is out of scope).
  int jobs = 4;
  common::Seconds arrival_gap = 0.0;

  // Index of the first job that runs under the shifted regime; < 0
  // disables the shift (the `shifted` cluster argument is ignored).
  int shift_at_job = -1;
};

struct JobStreamResult {
  // End of the last job on the stream timeline (arrival gaps included).
  common::Seconds makespan = 0.0;
  std::vector<sim::JobResult> jobs;
  hdfs::TransferSummary load;  // one-time copyFromLocal cost
  std::string policy_name;

  // Realized / predicted across the whole stream (0 without calibration).
  double calibration_ratio = 0.0;

  // Stream-wide totals.
  std::uint64_t failed_jobs = 0;
  std::uint64_t blocks_lost = 0;
  std::uint64_t tasks_lost = 0;
  std::uint64_t rereplications = 0;
  std::uint64_t rebalance_triggers = 0;
  std::uint64_t migrations_submitted = 0;
  std::uint64_t migrations_committed = 0;
  std::uint64_t migration_retries = 0;
  std::uint64_t migration_giveups = 0;
  std::uint64_t migration_bytes = 0;

  // The sinks are shared by every job, so traces, metrics and CUSUM
  // state accumulate across the stream. Each job's event clock restarts
  // at zero; trace timestamps are per job.
  obs::RunObservations obs;
};

// Run `config.jobs` jobs back to back. `initial` is the regime the data
// was placed under; `shifted` (same node count) takes over at
// `config.shift_at_job`. Throws ConfigError / invalid_argument on
// inconsistent configuration.
JobStreamResult run_job_stream(const cluster::Cluster& initial,
                               const cluster::Cluster& shifted,
                               const JobStreamConfig& config);

// The paper averages ten runs per point; this is one point's aggregate.
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
// result. Throws std::invalid_argument on an empty list. Repeated runs
// go through runner::ExperimentRunner, which derives each run's seed.
RepeatedResult merge_results(const std::vector<ExperimentResult>& results);

}  // namespace adapt::core
