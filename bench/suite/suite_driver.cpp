// Benchmark suite driver: runs one repetition ("rep") of one workload in
// a fresh process and prints one JSON object on stdout. run.py owns the
// repetition loop, the statistics and the verdict; this binary owns the
// workloads, the timing and the per-run correctness checks.
//
//   suite_driver rep    --workload W --seed S [--scale K]
//   suite_driver traced --workload W --seed S [--scale K]
//
// `rep` times building the workload's inputs and the set-up path
// (make_policy + copy_from_local, replicated from run_experiment), then
// the workload's run_experiment calls, and reports host seconds,
// events, peak RSS, a host reference time and a digest of every
// simulated result. `traced` repeats the rep untraced, once more with
// span profiling on and untraced again, then replays each layer's public
// entry points at the workload's shape to get ns/op. `--scale K` divides
// every node count by K (the smoke configuration).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "availability/task_time_cache.h"
#include "cluster/fault_domains.h"
#include "cluster/network.h"
#include "cluster/node_mask.h"
#include "cluster/topology.h"
#include "common/config.h"
#include "common/jsonfmt.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/adapt.h"
#include "hdfs/client.h"
#include "hdfs/namenode.h"
#include "obs/lineage.h"
#include "placement/random_policy.h"
#include "sim/event_queue.h"
#include "sim/injector.h"
#include "sim/scheduler_policy.h"
#include "trace/generator.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Results of timed loops land here so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

// One workload instance: the cluster its runs share and the config of
// each run (one entry per seed the rep executes).
struct Instance {
  std::shared_ptr<const cluster::Cluster> cluster;
  std::vector<core::ExperimentConfig> runs;
};

// Model cluster (flat uplinks, Table 4 defaults) over a SETI-like
// host population drawn from `seed`.
std::shared_ptr<const cluster::Cluster> seti_cluster(std::size_t nodes,
                                                     std::uint64_t seed) {
  trace::GeneratorConfig config;
  config.node_count = nodes;
  config.horizon = 14.0 * 24 * 3600;
  config.seed = seed;
  const trace::GeneratedTrace gen = trace::generate_seti_like_trace(config);
  std::vector<avail::InterruptionParams> params;
  params.reserve(gen.truth.size());
  for (const trace::HostTruth& host : gen.truth) {
    params.push_back(host.params());
  }
  return std::make_shared<const cluster::Cluster>(
      cluster::model_cluster(params, cluster::TraceClusterConfig{}));
}

// Seed of the k-th run of a rep; distinct across --seed values.
std::uint64_t run_seed(std::uint64_t seed, int k) {
  return seed * 16 + static_cast<std::uint64_t>(k);
}

// Fig. 5(c) substrate: SETI-like model population, flat uplinks,
// 100 blocks of 12 s per node, adapt r2, hosts in steady state, stranded
// blocks re-served by the origin after 600 s.
Instance fig5(std::size_t nodes, std::uint64_t seed, int runs,
              const obs::Options& obs) {
  Instance inst;
  inst.cluster = seti_cluster(nodes, seed);
  const workload::Workload w = workload::simulation_workload();
  for (int k = 0; k < runs; ++k) {
    core::ExperimentConfig config;
    config.policy = core::PolicyKind::kAdapt;
    config.replication = 2;
    config.blocks = w.blocks_for(nodes);
    config.job.gamma = w.gamma();
    config.job.origin_fetch_delay = 600.0;
    config.steady_state_start = true;
    config.seed = run_seed(seed, k);
    config.job.seed = config.seed;
    config.obs = obs;
    inst.runs.push_back(config);
  }
  return inst;
}

// Section V-A emulation scaled up: half the hosts interrupted (Table 2
// groups), FIFO uplinks at 8 Mb/s, 20 blocks of 6 s per node.
Instance emu_fifo(std::size_t nodes, std::uint64_t seed) {
  Instance inst;
  cluster::EmulationConfig emu;
  emu.node_count = nodes;
  emu.interrupted_ratio = 0.5;
  emu.bandwidth_bps = common::mbps(8);
  inst.cluster =
      std::make_shared<const cluster::Cluster>(cluster::emulated_cluster(emu));
  const workload::Workload w = workload::emulation_workload();
  for (int k = 0; k < 3; ++k) {
    core::ExperimentConfig config;
    config.policy = core::PolicyKind::kAdapt;
    config.replication = 2;
    config.blocks = w.blocks_for(nodes);
    config.job.gamma = w.gamma();
    config.job.scheduler.kind = sim::SchedulerKind::kBaseline;
    config.seed = run_seed(seed, k);
    config.job.seed = config.seed;
    inst.runs.push_back(config);
  }
  return inst;
}

// Churn plus gray failures on a model cluster: permanent departures,
// lossy heartbeats, bitrot with a budgeted scanner, safe mode, and the
// re-replication pipeline with origin fallback so every job completes.
// How many nodes a run declares dead (each declaration rebuilds the
// placement policy) follows the SETI population's heavy tail: over ten
// population seeds, one 1024-node run's host time had an interquartile
// range of 25% of its median. The population is therefore fixed and a
// rep sums four 512-node runs, which keeps the layer mix while making
// the rep's host time a property of the code rather than of the seed.
Instance churn_gray(std::size_t nodes, std::uint64_t seed) {
  constexpr std::uint64_t kPopulationSeed = 5;
  Instance inst;
  inst.cluster = seti_cluster(nodes, kPopulationSeed);
  const workload::Workload w = workload::simulation_workload();
  for (int k = 0; k < 4; ++k) {
    core::ExperimentConfig config;
    config.policy = core::PolicyKind::kAdapt;
    config.replication = 2;
    config.blocks = w.blocks_for(nodes);
    config.job.gamma = w.gamma();
    config.job.allow_origin_fetch = true;
    config.seed = run_seed(seed, k);
    config.job.seed = config.seed;
    sim::SimJobConfig::ChurnConfig& churn = config.job.churn;
    churn.enabled = true;
    churn.departure_rate = 1.0 / 7200.0;
    churn.dead_timeout = 30.0;
    churn.heartbeat_loss_prob = 0.01;
    churn.bitrot_rate = 1.0 / 300.0;
    churn.scan_interval = 60.0;
    churn.scan_blocks_per_sweep = 16;
    churn.safe_mode_threshold = 0.2;
    churn.safe_mode_hold = 60.0;
    churn.rereplication.enabled = true;
    inst.runs.push_back(config);
  }
  return inst;
}

struct WorkloadSpec {
  const char* name;
  std::size_t nodes;  // full-scale node count (divided by --scale)
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fig5_paper", 16384},
    {"emu_fifo", 8192},
    {"churn_gray", 512},
    {"fig5_observed", 4096},
};

Instance make_instance(const std::string& name, std::size_t nodes,
                       std::uint64_t seed) {
  if (name == "fig5_paper") return fig5(nodes, seed, 1, obs::Options{});
  if (name == "emu_fifo") return emu_fifo(nodes, seed);
  if (name == "churn_gray") return churn_gray(nodes, seed);
  // What a user turns on for a post-mortem: --trace --lineage --metrics.
  obs::Options obs;
  obs.trace = true;
  obs.lineage = true;
  obs.metrics = true;
  return fig5(nodes, seed, 4, obs);
}

// ---------------------------------------------------------------------
// Digest of simulated outputs
// ---------------------------------------------------------------------

// Every simulated field of a run, "%.17g" for doubles, folded into a
// 64-bit FNV-1a hash. Two runs of one config must hash identically no
// matter what observability was enabled.
class Digest {
 public:
  void add(double v) { add(common::json_number(v) + ";"); }
  void add(std::uint64_t v) { add(std::to_string(v) + ";"); }
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      hash_ = (hash_ ^ c) * 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void digest_result(Digest& d, const core::ExperimentResult& r) {
  const sim::JobResult& j = r.job;
  for (const double v :
       {j.elapsed, j.locality, j.overhead.base, j.overhead.rework,
        j.overhead.recovery, j.overhead.migration, j.overhead.misc,
        j.overhead.elapsed, r.placement_skew, r.load.completion_time}) {
    d.add(v);
  }
  for (const std::uint64_t v :
       {j.tasks, j.local_wins, j.remote_wins, j.origin_wins,
        j.attempts_started, j.attempts_failed, j.attempts_killed,
        j.transfers_started, j.transfers_aborted, j.aborts_dst_down,
        j.aborts_src_timeout, j.aborts_redundant, j.node_transitions,
        j.events_processed, j.network_bytes, j.speculative_launches,
        j.speculative_wins, j.redundant_launches, j.redundant_waste_bytes,
        std::uint64_t{j.failed}, j.nodes_departed, j.nodes_dead,
        j.nodes_resurrected, j.replicas_dropped, j.blocks_lost, j.tasks_lost,
        j.rereplications, j.replicas_restored, j.over_replicated_trimmed,
        j.duplicate_replica_inserts, j.rereplication_retries,
        j.rereplication_giveups, j.rereplication_bytes,
        j.max_under_replicated, j.heartbeats_lost, j.false_dead_declarations,
        j.replicas_corrupted, j.corrupt_reads, j.blocks_scanned,
        j.safe_mode_entries, j.safe_mode_deferrals, j.safe_mode_rescues,
        r.load.blocks_moved, r.load.bytes_moved}) {
    d.add(v);
  }
  d.add(j.failure + ";");
  for (const auto& lost : j.lost_blocks) {
    d.add(std::uint64_t{lost.block});
    d.add(std::uint64_t{lost.task});
  }
  for (const auto& c : j.corrupt_remaining) {
    d.add(std::uint64_t{c.block});
    d.add(std::uint64_t{c.node});
  }
  for (const std::uint64_t n : r.distribution) d.add(n);
}

// ---------------------------------------------------------------------
// Set-up path, replicated from run_experiment
// ---------------------------------------------------------------------

cluster::Network::Config network_config(const cluster::Cluster& cluster) {
  cluster::Network::Config config;
  for (const cluster::NodeSpec& node : cluster.nodes) {
    config.uplink_bps.push_back(node.uplink_bps);
    config.downlink_bps.push_back(node.downlink_bps);
  }
  config.origin_uplink_bps = cluster.origin_uplink_bps;
  config.fifo_admission = cluster.fifo_uplinks;
  return config;
}

struct Setup {
  double seconds = 0.0;
  std::vector<std::uint64_t> distribution;
};

// Policy build + NameNode load exactly as run_experiment performs them
// (same rng forks, same steady-state filter), so the distribution must
// match the run's byte for byte.
Setup time_setup(const cluster::Cluster& cluster,
                 const core::ExperimentConfig& config) {
  const auto domains = std::make_shared<const cluster::FaultDomains>(
      cluster::FaultDomains::from_cluster(cluster));
  hdfs::NameNode::NodeFilter filter;
  if (config.steady_state_start) {
    common::Rng init_rng = common::Rng(config.seed).fork(0x57a7);
    auto down = std::make_shared<std::vector<common::Seconds>>(
        sim::draw_initial_down(cluster.nodes, init_rng));
    filter = [down](cluster::NodeIndex node) { return (*down)[node] <= 0.0; };
  }

  const auto t0 = Clock::now();
  const placement::PolicyPtr policy = core::make_policy(
      config.policy, cluster.params(), config.job.gamma, config.blocks,
      config.weighting, nullptr, nullptr, 0.0, domains.get());
  hdfs::NameNode::Options options;
  options.fidelity_cap = config.fidelity_cap;
  hdfs::NameNode namenode(cluster.size(), options);
  cluster::Network network(network_config(cluster));
  hdfs::Client client(namenode, placement::make_random_policy(cluster.size()),
                      policy, &network, cluster.block_size_bytes);
  common::Rng rng = common::Rng(config.seed).fork(0x91ac);
  const hdfs::FileId file = client.copy_from_local(
      "input", config.blocks, config.replication, /*adapt_enabled=*/true, rng,
      0.0, nullptr, filter);
  Setup out;
  out.seconds = seconds_since(t0);
  out.distribution = namenode.file_distribution(file);
  return out;
}

// ---------------------------------------------------------------------
// Reps
// ---------------------------------------------------------------------

// Fixed, repository-independent CPU+memory kernel (sort plus heap over
// 2^19 keys). Its time drifts with the host, not with the code, so a
// shift in it flags machine drift rather than a regression.
double host_ref_seconds() {
  std::vector<std::uint64_t> keys(1u << 19);
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (std::uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::priority_queue<std::uint64_t> heap(keys.begin(), keys.end());
  std::uint64_t sink = sorted[sorted.size() / 2];
  while (!heap.empty()) {
    sink += heap.top();
    heap.pop();
  }
  const double seconds = seconds_since(t0);
  g_sink = sink;
  return seconds;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// What a rep keeps of each run: the job outcome and the span profile,
// not the trace ring or lineage snapshot (those would inflate peak RSS
// with every further run of the rep).
struct RunSummary {
  sim::JobResult job;
  std::vector<obs::SpanRecord> spans;
  std::uint64_t trace_records = 0;
  std::uint64_t trace_dropped = 0;
};

struct RepResult {
  double wall_s = 0.0;
  double load_s = 0.0;  // policy builds + data loads, timed before each run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string digest;
  std::vector<RunSummary> runs;

  void absorb_checks(const RepResult& other) {
    attempted += other.attempted;
    failed += other.failed;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }
};

// Checks that hold for every run of every workload.
void check_run(const core::ExperimentConfig& config,
               const core::ExperimentResult& r, const Setup* setup,
               std::vector<std::string>& errors) {
  const std::string at = "seed " + std::to_string(config.seed) + ": ";
  if (r.job.failed) errors.push_back(at + "job failed: " + r.job.failure);
  if (r.job.tasks != config.blocks) errors.push_back(at + "task count");
  if (r.job.events_processed == 0) errors.push_back(at + "no events");
  std::uint64_t replicas = 0;
  for (const std::uint64_t n : r.distribution) replicas += n;
  if (replicas != std::uint64_t{config.blocks} *
                      static_cast<std::uint64_t>(config.replication)) {
    errors.push_back(at + "replicas placed");
  }
  if (setup != nullptr && setup->distribution != r.distribution) {
    errors.push_back(at + "set-up distribution differs from the run's");
  }
}

// Set-ups of a run are repeated until about this many replicas have been
// placed, at most kMaxSetups times.
constexpr std::uint64_t kSetupReplicas = 1'000'000;
constexpr std::uint64_t kMaxSetups = 5;

// Runs every config of the instance; `obs_override` (when set) replaces
// each config's observability options. `time_setups` also times the
// set-up path before each run and checks its distribution.
RepResult run_rep(const Instance& inst, bool time_setups,
                  const obs::Options* obs_override) {
  RepResult rep;
  Digest digest;
  for (core::ExperimentConfig config : inst.runs) {
    if (obs_override != nullptr) config.obs = *obs_override;
    ++rep.attempted;
    const std::size_t errors_before = rep.errors.size();
    try {
      Setup setup;
      if (time_setups) {
        // A set-up of a few ms is at the mercy of one burst of host noise,
        // so small ones are repeated and the median is kept. The count
        // follows the input size, never the clock, so it is the same in
        // every rep.
        const std::uint64_t replicas =
            std::uint64_t{config.blocks} *
            static_cast<std::uint64_t>(config.replication);
        const std::uint64_t repeats = std::clamp<std::uint64_t>(
            kSetupReplicas / std::max<std::uint64_t>(1, replicas), 1,
            kMaxSetups);
        setup = time_setup(*inst.cluster, config);
        std::vector<double> times = {setup.seconds};
        while (times.size() < repeats) {
          times.push_back(time_setup(*inst.cluster, config).seconds);
        }
        rep.load_s += common::percentile(times, 0.5);
      }
      const auto t0 = Clock::now();
      core::ExperimentResult r = core::run_experiment(*inst.cluster, config);
      rep.wall_s += seconds_since(t0);
      check_run(config, r, time_setups ? &setup : nullptr, rep.errors);
      digest_result(digest, r);
      rep.runs.push_back({std::move(r.job), std::move(r.obs.spans),
                          r.obs.records.size() + r.obs.dropped,
                          r.obs.dropped});
    } catch (const std::exception& e) {
      rep.errors.push_back("seed " + std::to_string(config.seed) +
                           ": threw: " + e.what());
    }
    if (rep.errors.size() != errors_before) ++rep.failed;
  }
  rep.digest = digest.hex();
  return rep;
}

// ---------------------------------------------------------------------
// Replayed layer timings
// ---------------------------------------------------------------------

// Runs `op(i)` for i in [0, n) and returns ns per call.
template <typename Op>
double ns_per_op(std::uint64_t n, Op&& op) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) op(i);
  return seconds_since(t0) * 1e9 / static_cast<double>(n);
}

// Hold model: each popped event schedules one successor, keeping the
// queue at `depth` pending events.
double event_queue_hold_ns(std::size_t depth) {
  sim::EventQueue queue;
  common::Rng rng(101);
  std::function<void()> hold;
  hold = [&] { queue.schedule(queue.now() + rng.exponential(1.0), hold); };
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule(rng.exponential(1.0), hold);
  }
  for (int i = 0; i < 100000; ++i) queue.run_next();  // warm the slab
  return ns_per_op(1'000'000, [&](std::uint64_t) { queue.run_next(); });
}

struct NetworkTimings {
  double request_ns = 0.0;
  double abort_ns = 0.0;
};

// Batches of one block request per node (random distinct peer), every
// grant of a batch aborted one second later; request and abort are timed
// separately over the same batches.
NetworkTimings network_timings(const cluster::Cluster& cluster) {
  cluster::Network network(network_config(cluster));
  const std::size_t n = cluster.size();
  common::Rng rng(103);
  std::vector<cluster::TransferGrant> grants(n);
  double request_s = 0.0;
  double abort_s = 0.0;
  std::uint64_t ops = 0;
  common::Seconds now = 0.0;
  while (ops < 400'000) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = static_cast<std::uint32_t>(rng.uniform_index(n));
      auto dst = static_cast<std::uint32_t>(rng.uniform_index(n - 1));
      if (dst >= src) ++dst;
      grants[i] = network.request(src, dst, cluster.block_size_bytes, now);
    }
    request_s += seconds_since(t0);
    now += 1.0;
    t0 = Clock::now();
    for (const cluster::TransferGrant& g : grants) network.abort(g, now);
    abort_s += seconds_since(t0);
    now += 1.0;
    ops += n;
  }
  return {request_s * 1e9 / static_cast<double>(ops),
          abort_s * 1e9 / static_cast<double>(ops)};
}

// Fake scheduler view: one running, overdue-or-not attempt per node, no
// task local to the asking node, so pick_speculative scans all of them.
class FakeHost : public sim::SchedulerHost {
 public:
  explicit FakeHost(std::size_t nodes) : nodes_(nodes) {}
  common::Seconds now() const override { return 1000.0; }
  std::size_t running_count() const override { return nodes_; }
  sim::AttemptView running_attempt(std::size_t i) const override {
    sim::AttemptView a;
    a.task = static_cast<std::uint32_t>(i);
    a.node = static_cast<cluster::NodeIndex>(i);
    a.alive = true;
    a.nominal_end = 900.0;
    a.projected_finish = (i % 2 == 0) ? 1200.0 : 905.0;
    a.remaining = 200.0 + static_cast<double>(i % 97);
    a.first_start = 800.0;
    return a;
  }
  bool task_running(std::uint32_t) const override { return true; }
  std::size_t attempt_count(std::uint32_t) const override { return 1; }
  bool is_local_to(std::uint32_t, cluster::NodeIndex) const override {
    return false;
  }
  double estimated_cost_on(cluster::NodeIndex, std::uint32_t) const override {
    return 1e9;  // never profitable: every pick scans and declines
  }
  double cluster_calibration_ratio() const override { return -1.0; }

 private:
  std::size_t nodes_;
};

// Synthetic record mix of a map phase (attempt start, transfer request,
// placement, attempt finish) streamed into a LineageIndex sink.
double obs_record_ns(std::size_t nodes, std::uint32_t blocks) {
  obs::EventTracer tracer;
  obs::LineageIndex lineage;
  tracer.set_sink(&lineage);
  common::Rng rng(107);
  constexpr obs::EventType kMix[] = {
      obs::EventType::kPlacement, obs::EventType::kAttemptStart,
      obs::EventType::kTransferRequest, obs::EventType::kAttemptFinish};
  return ns_per_op(2'000'000, [&](std::uint64_t i) {
    obs::TraceRecord r;
    r.t = static_cast<double>(i) * 0.01;
    r.type = kMix[i % 4];
    r.node = static_cast<std::uint32_t>(rng.uniform_index(nodes));
    r.task = static_cast<std::uint32_t>(rng.uniform_index(blocks));
    tracer.record(r);
  });
}

struct LayerTimings {
  double hold_ns = 0.0;
  NetworkTimings network;
  double draw_ns = 0.0;
  double build_ms = 0.0;
  double create_ns_per_replica = 0.0;
  double mark_dead_us = 0.0;
  double revive_us = 0.0;
  double pick_ns = 0.0;
  double record_ns = 0.0;
};

LayerTimings replay_layers(const Instance& inst) {
  const cluster::Cluster& cluster = *inst.cluster;
  const core::ExperimentConfig& config = inst.runs.front();
  const std::size_t n = cluster.size();
  LayerTimings t;
  t.hold_ns = event_queue_hold_ns(n * 2);
  t.network = network_timings(cluster);

  // Rebuilds share one Eq. 5 memo, as the churn policy refresh does; the
  // first build only warms it, the median of the next three is kept.
  const std::vector<avail::InterruptionParams> params = cluster.params();
  avail::TaskTimeCache task_times;
  std::vector<double> builds;
  placement::PolicyPtr policy;
  for (int i = 0; i < 4; ++i) {
    const auto t0 = Clock::now();
    policy = core::make_policy(config.policy, params, config.job.gamma,
                               config.blocks, config.weighting, &task_times);
    if (i > 0) builds.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(builds.begin(), builds.end());
  t.build_ms = builds[1];

  const cluster::NodeMask eligible(n, true);
  common::Rng rng(109);
  t.draw_ns = ns_per_op(2'000'000, [&](std::uint64_t) {
    g_sink = policy->choose(eligible, rng).value_or(0);
  });

  hdfs::NameNode::Options options;
  options.fidelity_cap = config.fidelity_cap;
  hdfs::NameNode namenode(n, options);
  auto t0 = Clock::now();
  namenode.create_file("f", config.blocks, config.replication, policy, rng);
  t.create_ns_per_replica =
      seconds_since(t0) * 1e9 /
      (static_cast<double>(config.blocks) * config.replication);

  const std::size_t victims = std::max<std::size_t>(1, std::min<std::size_t>(
                                                           64, n / 4));
  t0 = Clock::now();
  for (std::size_t i = 0; i < victims; ++i) {
    g_sink = namenode.mark_node_dead(static_cast<cluster::NodeIndex>(i * 3))
                 .size();
  }
  t.mark_dead_us = seconds_since(t0) * 1e6 / static_cast<double>(victims);
  t0 = Clock::now();
  for (std::size_t i = 0; i < victims; ++i) {
    g_sink = namenode.revive_node(static_cast<cluster::NodeIndex>(i * 3))
                 .restored.size();
  }
  t.revive_us = seconds_since(t0) * 1e6 / static_cast<double>(victims);

  const sim::SchedulerPtr scheduler =
      sim::make_scheduler(config.job.scheduler, config.job.gamma);
  const FakeHost host(n);
  const std::uint64_t picks = std::max<std::uint64_t>(200, 20'000'000 / n);
  t.pick_ns = ns_per_op(picks, [&](std::uint64_t i) {
    g_sink = scheduler->pick_speculative(
                 static_cast<cluster::NodeIndex>(i % n), host)
                 .value_or(0);
  });

  t.record_ns = obs_record_ns(n, config.blocks);
  return t;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string quote(const std::string& v) {
  std::string quoted = "\"";
  quoted += common::json_escape(v);
  quoted += '"';
  return quoted;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, common::json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string errors_json(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (const std::string& e : errors) {
    if (out.size() > 1) out += ", ";
    out += quote(e);
  }
  return out + "]";
}

void put_rep(JsonObject& o, const RepResult& rep) {
  std::uint64_t events = 0;
  for (const RunSummary& r : rep.runs) events += r.job.events_processed;
  o.num("wall_s", rep.wall_s)
      .num("events", static_cast<double>(events))
      .num("attempted", static_cast<double>(rep.attempted))
      .num("failed", static_cast<double>(rep.failed))
      .str("digest", rep.digest)
      .raw("errors", errors_json(rep.errors));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer metrics of the traced rep: span self host-seconds (or their
// share of the traced wall) by layer, deterministic counts, replayed
// ns/op and the derived shares.
std::string layer_metrics(const RepResult& untraced, const RepResult& traced,
                          const LayerTimings& t, std::uint64_t replicas) {
  std::map<std::string, double> self_s;
  double top_level_s = 0.0;
  double refreshes = 0.0;
  double trace_records = 0.0;
  double trace_dropped = 0.0;
  double events = 0, transfers = 0, aborts = 0, started = 0, wasted = 0;
  double spec = 0, spec_wins = 0, dead = 0, revived = 0, rerep = 0,
         giveups = 0;
  for (const RunSummary& r : traced.runs) {
    for (const obs::SpanRecord& s : r.spans) {
      self_s[s.name] += static_cast<double>(s.self_host_ns) * 1e-9;
      if (s.depth == 0) {
        top_level_s += static_cast<double>(s.dur_host_ns) * 1e-9;
      }
      if (s.name == "policy_refresh") refreshes += 1;
    }
    trace_records += static_cast<double>(r.trace_records);
    trace_dropped += static_cast<double>(r.trace_dropped);
    const sim::JobResult& j = r.job;
    events += static_cast<double>(j.events_processed);
    transfers += static_cast<double>(j.transfers_started);
    aborts += static_cast<double>(j.transfers_aborted);
    started += static_cast<double>(j.attempts_started);
    wasted += static_cast<double>(j.attempts_failed + j.attempts_killed);
    spec += static_cast<double>(j.speculative_launches);
    spec_wins += static_cast<double>(j.speculative_wins);
    dead += static_cast<double>(j.nodes_dead);
    revived += static_cast<double>(j.nodes_resurrected);
    rerep += static_cast<double>(j.rereplications);
    giveups += static_cast<double>(j.rereplication_giveups);
  }
  const double wall_ns = traced.wall_s * 1e9;
  JsonObject o;
  o.num("core.policy_build_s", self_s["policy_build"])
      .num("availability.predict_s", self_s["predict"])
      .num("placement.hash_table_build_s", self_s["hash_table_build"])
      .num("hdfs.load_s", self_s["load"])
      .num("sim.map_phase_s", self_s["map_phase"])
      // Only churn runs refresh the policy or re-replicate; elsewhere these
      // are exactly 0 on every run. As shares of the traced wall they say
      // so without posing as a host time that never varies.
      .num("sim.policy_refresh_share",
           ratio(self_s["policy_refresh"], traced.wall_s))
      .num("rereplication.batch_share",
           ratio(self_s["rereplication_batch"], traced.wall_s))
      // run_experiment's host time outside its top-level spans: building
      // the sinks, taking the obs snapshots and tearing the run down.
      .num("core.experiment_self_s", traced.wall_s - top_level_s)
      .num("event_queue.events", events)
      .num("network.transfers", transfers)
      .num("network.abort_ratio", ratio(aborts, transfers))
      .num("scheduler.attempts_wasted_ratio", ratio(wasted, started))
      .num("scheduler.speculative_win_ratio", ratio(spec_wins, spec))
      .num("namenode.dead_declarations", dead)
      .num("rereplication.giveup_ratio", ratio(giveups, rerep + giveups))
      .num("obs.trace_records", trace_records)
      .num("obs.trace_dropped", trace_dropped)
      .num("event_queue.hold_ns", t.hold_ns)
      .num("network.request_ns", t.network.request_ns)
      .num("network.abort_ns", t.network.abort_ns)
      .num("placement.draw_ns", t.draw_ns)
      .num("placement.build_ms", t.build_ms)
      .num("namenode.create_ns_per_replica", t.create_ns_per_replica)
      .num("namenode.mark_dead_us", t.mark_dead_us)
      .num("namenode.revive_us", t.revive_us)
      .num("scheduler.pick_ns", t.pick_ns)
      .num("obs.record_ns", t.record_ns)
      .num("event_queue.est_share", ratio(t.hold_ns * events, wall_ns))
      .num("network.est_share", ratio(t.network.request_ns * transfers +
                                          t.network.abort_ns * aborts,
                                      wall_ns))
      .num("placement.est_share",
           ratio(t.build_ms * 1e6 * (1 + refreshes) + t.draw_ns * rerep,
                 wall_ns))
      .num("namenode.est_share",
           ratio(t.create_ns_per_replica * static_cast<double>(replicas) +
                     t.mark_dead_us * 1e3 * dead + t.revive_us * 1e3 * revived,
                 wall_ns))
      // Picks that declined are not counted anywhere, so this counts only
      // the picks that launched a duplicate: a floor on the share.
      .num("scheduler.est_share", ratio(t.pick_ns * spec, wall_ns))
      .num("obs.est_share", ratio(t.record_ns * trace_records, wall_ns))
      .num("span_coverage", ratio(top_level_s, traced.wall_s))
      .num("trace_overhead", ratio(traced.wall_s, untraced.wall_s));
  return o.text();
}

int usage() {
  std::fprintf(stderr,
               "usage: suite_driver rep|traced --workload NAME --seed S "
               "[--scale K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  if (flags.positional().size() != 1) return usage();
  const std::string mode = flags.positional().front();
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
  const std::int64_t scale = flags.get_int("scale", 1);
  if (!flags.unused().empty() || scale < 1 ||
      (mode != "rep" && mode != "traced")) {
    return usage();
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const std::size_t nodes =
      std::max<std::size_t>(8, spec->nodes / static_cast<std::size_t>(scale));

  JsonObject out;
  out.str("mode", mode).str("workload", name).num("seed",
                                                  static_cast<double>(seed));
  out.num("nodes", static_cast<double>(nodes)).str("compiler", __VERSION__);
  const auto t0 = Clock::now();
  const Instance inst = make_instance(name, nodes, seed);
  const double inputs_s = seconds_since(t0);
  out.num("inputs_s", inputs_s)
      .num("runs", static_cast<double>(inst.runs.size()));

  if (mode == "rep") {
    const RepResult rep = run_rep(inst, /*time_setups=*/true, nullptr);
    put_rep(out, rep);
    // Set-up is everything before the map phase: the inputs the suite
    // builds outside the timed region, then each run's policy build and
    // data load. Work moved out of run_experiment into either shows here.
    out.num("setup_s", inputs_s + rep.load_s)
        .num("load_s", rep.load_s)
        .num("peak_rss_mb", peak_rss_mb());
  } else {
    // The first rep of a process also pays for faulting in a fresh heap,
    // so the traced rep is compared with an untraced rep run after it,
    // not with the first one.
    RepResult untraced = run_rep(inst, false, nullptr);
    obs::Options traced_obs = inst.runs.front().obs;
    traced_obs.spans = true;
    traced_obs.span_host = true;
    const RepResult traced = run_rep(inst, false, &traced_obs);
    const RepResult warm = run_rep(inst, false, nullptr);
    // Observability must not perturb the model: the traced rep, and for
    // a workload that runs with obs on, a rep with obs off, must
    // reproduce the untraced digest.
    std::vector<const RepResult*> variants = {&traced, &warm};
    RepResult plain;
    if (inst.runs.front().obs.enabled()) {
      const obs::Options off;
      plain = run_rep(inst, false, &off);
      variants.push_back(&plain);
    }
    const LayerTimings timings = replay_layers(inst);
    std::uint64_t replicas = 0;
    for (const core::ExperimentConfig& c : inst.runs) {
      replicas += std::uint64_t{c.blocks} *
                  static_cast<std::uint64_t>(c.replication);
    }
    out.raw("layers", layer_metrics(warm, traced, timings, replicas))
        .num("traced_wall_s", traced.wall_s);
    for (const RepResult* v : variants) {
      untraced.absorb_checks(*v);
      if (v->digest != untraced.digest) {
        const char* what = v == &traced ? "traced"
                           : v == &warm ? "second untraced"
                                        : "obs-off";
        untraced.errors.push_back(std::string(what) + " digest " + v->digest +
                                  " differs from " + untraced.digest);
        ++untraced.failed;
      }
    }
    put_rep(out, untraced);
    out.num("peak_rss_mb", peak_rss_mb());
  }
  // After the peak RSS reading, so the kernel's buffers never count.
  out.num("host_ref_s", host_ref_seconds());
  std::printf("%s\n", out.text().c_str());
  return 0;
}
