#include "sim/chaos.h"

#include <algorithm>
#include <sstream>

#include "cluster/topology.h"
#include "common/rng.h"
#include "common/units.h"
#include "hdfs/namenode.h"
#include "obs/lineage.h"
#include "obs/trace.h"
#include "placement/random_policy.h"

namespace adapt::sim {
namespace {

// Crash-stop churn underneath the gray layer: one interruption per 900 s
// per node, and outages of 120 s on average (InterruptionParams::mu is a
// mean outage length), long enough for some to reach a dead declaration.
constexpr double kInterruptionLambda = 1.0 / 900.0;  // per second
constexpr common::Seconds kInterruptionMu = 120.0;
constexpr double kDepartureRate = 2e-5;

// Detection knobs: a short dead timeout makes false positives easy.
constexpr common::Seconds kHeartbeatInterval = 3.0;
constexpr common::Seconds kDeadTimeout = 15.0;

// Gray-failure intensity ceilings; each run samples its schedule from
// the seed inside these bounds. Every schedule runs the scanner, and
// safe mode whenever detection is message-level.
constexpr double kMaxHeartbeatLoss = 0.5;
constexpr std::size_t kMaxPartitions = 2;
constexpr std::size_t kMaxStragglers = 3;
constexpr std::size_t kMaxCorruptions = 4;

cluster::Cluster build_cluster(const ChaosConfig& config) {
  cluster::Cluster c;
  c.block_size_bytes = 4 * common::kMiB;
  c.nodes.resize(config.nodes);
  for (cluster::NodeSpec& node : c.nodes) {
    node.mode = cluster::AvailabilityMode::kModel;
    node.params.lambda = kInterruptionLambda;
    node.params.mu = kInterruptionMu;
    node.uplink_bps = common::mbps(16);
    node.downlink_bps = common::mbps(16);
  }
  return c;
}

// Sample the gray-failure schedule the seed denotes. Every draw comes
// from one dedicated fork so the schedule is a pure function of the
// seed, independent of what the simulation itself consumes.
SimJobConfig::ChurnConfig build_schedule(const ChaosConfig& config) {
  common::Rng rng = common::Rng(config.seed).fork(0xc405);
  SimJobConfig::ChurnConfig churn;
  churn.enabled = true;
  churn.departure_rate = kDepartureRate;
  churn.heartbeat_interval = kHeartbeatInterval;
  churn.dead_timeout = kDeadTimeout;

  churn.heartbeat_loss_prob = rng.uniform() * kMaxHeartbeatLoss;

  const std::size_t partitions = rng.uniform_index(kMaxPartitions + 1);
  for (std::size_t p = 0; p < partitions; ++p) {
    SimJobConfig::ChurnConfig::Partition part;
    part.at = 5.0 + 60.0 * rng.uniform();
    part.heal_at = part.at + 12.0 + 40.0 * rng.uniform();
    const std::size_t cut = 1 + rng.uniform_index(config.nodes / 3 + 1);
    for (std::size_t i = 0; i < cut; ++i) {
      const std::uint32_t n =
          static_cast<std::uint32_t>(rng.uniform_index(config.nodes));
      if (std::find(part.nodes.begin(), part.nodes.end(), n) ==
          part.nodes.end()) {
        part.nodes.push_back(n);
      }
    }
    churn.partitions.push_back(std::move(part));
  }

  const std::size_t stragglers = rng.uniform_index(kMaxStragglers + 1);
  for (std::size_t s = 0; s < stragglers; ++s) {
    SimJobConfig::ChurnConfig::Straggler st;
    st.node = static_cast<std::uint32_t>(rng.uniform_index(config.nodes));
    st.at = 5.0 + 60.0 * rng.uniform();
    st.until = st.at + 15.0 + 60.0 * rng.uniform();
    st.slow_factor = 2.0 + 6.0 * rng.uniform();
    churn.stragglers.push_back(st);
  }

  const std::size_t corruptions = 1 + rng.uniform_index(kMaxCorruptions);
  for (std::size_t c = 0; c < corruptions; ++c) {
    SimJobConfig::ChurnConfig::Corruption corr;
    corr.at = 3.0 + 60.0 * rng.uniform();
    corr.block = static_cast<std::uint32_t>(rng.uniform_index(config.blocks));
    corr.node = -1;
    churn.corruptions.push_back(corr);
  }

  churn.scan_interval = 20.0;
  churn.scan_blocks_per_sweep = 8;
  // Safe mode gates message-level detection only; the sampled loss can
  // be 0 and the partition count can draw 0.
  if (churn.message_level()) {
    churn.safe_mode_threshold = 0.25;
    churn.safe_mode_hold = 20.0;
  }
  return churn;
}

struct RunOutput {
  JobResult job;
  std::string trace_jsonl;
  std::string post_mortem;
};

RunOutput run_once(const ChaosConfig& config,
                   const SimJobConfig::ChurnConfig& schedule,
                   hdfs::NameNode& nn, hdfs::FileId& file_out) {
  const cluster::Cluster cluster = build_cluster(config);
  common::Rng place_rng = common::Rng(config.seed).fork(0x91ac);
  const hdfs::FileId file = nn.create_file(
      "chaos", config.blocks, config.replication,
      placement::make_random_policy(config.nodes), place_rng);
  file_out = file;

  obs::EventTracer tracer;
  // Online lineage: streams from the tracer, so the post-mortem stays
  // exact even if the ring were to overwrite.
  obs::LineageIndex lineage;
  tracer.set_sink(&lineage);
  SimJobConfig job_config;
  job_config.gamma = config.gamma;
  job_config.seed = config.seed;
  job_config.allow_origin_fetch = false;
  job_config.churn = schedule;
  job_config.tracer = &tracer;

  MapReduceSimulation sim(cluster, nn, file, job_config);
  RunOutput out;
  out.job = sim.run();
  out.post_mortem =
      obs::post_mortem_text(obs::post_mortem(lineage.take_snapshot()));
  obs::RunObservations obs;
  obs.records = tracer.take_records();
  obs.dropped = tracer.dropped();
  out.trace_jsonl = obs::to_jsonl({std::move(obs)});
  return out;
}

void check_invariants(const hdfs::NameNode& nn, hdfs::FileId file,
                      const ChaosConfig& config, const JobResult& job,
                      std::vector<ChaosViolation>& out) {
  const auto violation =
      [&out](const char* name, std::string detail,
             std::uint32_t block = ChaosViolation::kNoBlock) {
        out.push_back({name, std::move(detail), block});
      };

  // Metadata consistency over every block of the file.
  for (const hdfs::BlockId block : nn.file(file).blocks) {
    std::vector<cluster::NodeIndex> holders = nn.block(block).replicas;
    std::sort(holders.begin(), holders.end());
    if (std::adjacent_find(holders.begin(), holders.end()) !=
        holders.end()) {
      std::ostringstream os;
      os << "block " << block << " lists a holder twice";
      violation("duplicate_replica", os.str(), block);
    }
    for (const cluster::NodeIndex n : holders) {
      if (nn.is_dead(n)) {
        std::ostringstream os;
        os << "block " << block << " registered on written-off node " << n;
        violation("replica_on_dead_node", os.str(), block);
      }
    }
    if (static_cast<int>(holders.size()) > config.replication) {
      std::ostringstream os;
      os << "block " << block << " has " << holders.size()
         << " replicas, target " << config.replication;
      violation("over_replicated", os.str(), block);
    }
  }

  // Pending-move ledger must be empty: chaos runs no rebalancer, and
  // nothing else may leak a pending move.
  if (!nn.pending_moves().empty()) {
    std::ostringstream os;
    os << nn.pending_moves().size() << " pending move(s) leaked";
    violation("pending_moves_leaked", os.str());
  }

  // Loss honesty: a lost block must have no live uncorrupted replica
  // still registered — the job never writes off data it could read.
  const auto corrupt = [&job](hdfs::BlockId block, cluster::NodeIndex node) {
    for (const JobResult::CorruptReplica& c : job.corrupt_remaining) {
      if (c.block == block && c.node == node) return true;
    }
    return false;
  };
  for (const JobResult::LostBlock& lb : job.lost_blocks) {
    for (const cluster::NodeIndex n : nn.block(lb.block).replicas) {
      if (!nn.is_dead(n) && !corrupt(lb.block, n)) {
        std::ostringstream os;
        os << "lost block " << lb.block << " still has live clean replica on "
           << n;
        violation("lost_with_live_replica", os.str(), lb.block);
      }
    }
  }

  // Accounting ties out.
  if (job.tasks_lost != job.lost_blocks.size()) {
    std::ostringstream os;
    os << "tasks_lost " << job.tasks_lost << " != lost_blocks "
       << job.lost_blocks.size();
    violation("loss_accounting", os.str());
  }
  if (job.failed && job.failure.empty()) {
    violation("failure_label", "failed run carries no failure reason");
  }
  if (!job.failed && !job.lost_blocks.empty()) {
    violation("loss_accounting", "lost blocks on a run not marked failed");
  }
}

}  // namespace

ChaosReport run_chaos(const ChaosConfig& config) {
  ChaosReport report;
  report.schedule = build_schedule(config);

  hdfs::NameNode nn(config.nodes);
  hdfs::FileId file = 0;
  RunOutput first = run_once(config, report.schedule, nn, file);
  report.job = first.job;
  report.trace_jsonl = first.trace_jsonl;
  report.post_mortem = first.post_mortem;
  check_invariants(nn, file, config, first.job, report.violations);

  if (config.check_determinism) {
    hdfs::NameNode nn2(config.nodes);
    hdfs::FileId file2 = 0;
    RunOutput second = run_once(config, report.schedule, nn2, file2);
    if (second.trace_jsonl != first.trace_jsonl) {
      report.violations.push_back(
          {"nondeterminism",
           "same seed produced a different event trace on re-run"});
    }
    if (second.post_mortem != first.post_mortem) {
      report.violations.push_back(
          {"post_mortem_nondeterminism",
           "same seed produced a different loss classification on re-run"});
    }
  }
  return report;
}

}  // namespace adapt::sim
