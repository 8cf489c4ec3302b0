#include "sim/mapreduce_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "availability/predictor.h"
#include "placement/random_policy.h"

namespace adapt::sim {

namespace {

InterruptionInjector::Config injector_config(const SimJobConfig& config) {
  InterruptionInjector::Config c;
  c.replay_horizon = config.replay_horizon;
  c.replay_offsets = config.replay_offsets;
  c.initial_down_until = config.initial_down_until;
  if (config.churn.enabled) {
    c.departure_rate = config.churn.departure_rate;
    c.burst_at = config.churn.burst_at;
    c.burst_fraction = config.churn.burst_fraction;
    c.domain_burst_at = config.churn.domain_burst_at;
    c.domain_burst_count = config.churn.domain_burst_count;
    c.domain_of = config.churn.domain_of;
    c.join_at = config.churn.join_at;
  }
  return c;
}

}  // namespace

std::vector<std::vector<cluster::NodeIndex>> replica_map(
    const hdfs::NameNode& namenode, hdfs::FileId file) {
  std::vector<std::vector<cluster::NodeIndex>> out;
  const hdfs::FileInfo& info = namenode.file(file);
  out.reserve(info.blocks.size());
  for (const hdfs::BlockId block : info.blocks) {
    out.push_back(namenode.block(block).replicas);
  }
  return out;
}

MapReduceSimulation::MapReduceSimulation(const cluster::Cluster& cluster,
                                         hdfs::NameNode& namenode,
                                         hdfs::FileId file,
                                         SimJobConfig config)
    : cluster_(cluster),
      namenode_(namenode),
      file_(file),
      config_(config),
      network_(cluster.network_config()),
      rng_(common::Rng(config.seed).fork(0x5157)),
      board_(replica_map(namenode, file), cluster.size()),
      injector_(queue_, cluster.nodes, *this,
                common::Rng(config.seed).fork(0x1417),
                injector_config(config)) {
  config_.validate();  // throws ConfigError naming the bad field
  scheduler_ = make_scheduler(config_.scheduler, config_.gamma);
  node_state_.resize(cluster.size());
  for (TaskId t = 0; t < board_.task_count(); ++t) {
    for (const cluster::NodeIndex home : board_.home_nodes(t)) {
      ++node_state_[home].undone_home;
    }
  }
  board_.set_tracer(config_.tracer);
  if (config_.metrics != nullptr) {
    hist_transfer_ = config_.metrics->histogram(
        "sim.transfer_duration_s",
        obs::MetricsRegistry::exponential_bounds(1.0, 2.0, 14));
    hist_outage_ = config_.metrics->histogram(
        "sim.outage_duration_s",
        obs::MetricsRegistry::exponential_bounds(1.0, 2.0, 18));
    hist_wait_ = config_.metrics->histogram(
        "net.admission_wait_s",
        obs::MetricsRegistry::exponential_bounds(0.5, 2.0, 14));
    // Realized task completion times are heavy-tailed (a single outage
    // multiplies them); log-spaced bounds keep the tail out of the
    // overflow bucket.
    hist_task_time_ = config_.metrics->histogram(
        "sim.task_completion_s",
        obs::MetricsRegistry::log_bounds(8.0, 8192.0, 21));
    if (config_.sample_dt > 0.0) {
      gauge_nodes_up_ = config_.metrics->gauge("sim.nodes_up");
      gauge_tasks_done_ = config_.metrics->gauge("sim.tasks_done");
      gauge_attempts_running_ =
          config_.metrics->gauge("sim.attempts_running");
      if (config_.churn.enabled) {
        gauge_under_replicated_ =
            config_.metrics->gauge("sim.under_replicated");
      }
      if (config_.calibration != nullptr) {
        gauge_cal_ratio_ = config_.metrics->gauge("calibration.ratio");
      }
    }
    if (config_.calibration != nullptr) {
      ctr_drift_alarms_ = config_.metrics->counter("calibration.drift_alarms");
    }
  }
  // The calibrated scheduler compares realized running time against the
  // placement-time quote, so it needs first-start stamps even without a
  // metrics registry or calibration tracker.
  if (config_.metrics != nullptr || config_.calibration != nullptr ||
      config_.scheduler.kind == SchedulerKind::kCalibrated) {
    task_first_start_.assign(board_.task_count(), -1.0);
  }

  if (config_.origin_fetch_delay >= 0) {
    origin_delay_ = config_.origin_fetch_delay;
  } else {
    double max_down = 0.0;
    for (const cluster::NodeSpec& node : cluster.nodes) {
      max_down = std::max(max_down, node.downlink_bps);
    }
    origin_delay_ = common::transfer_time(
        cluster.block_size_bytes,
        std::min(network_.origin_uplink_bps(), max_down));
  }

  if (config_.rebalance.enabled &&
      (config_.calibration == nullptr ||
       !config_.calibration->has_reference() || config_.sample_dt <= 0.0)) {
    throw std::invalid_argument(
        "simulation: rebalance requires a calibration tracker with a CUSUM "
        "reference and sample_dt > 0 (the loop is driven by CUSUM drift "
        "alarms)");
  }
  if (config_.churn.enabled) init_churn();
}

// ---------------------------------------------------------------------
// Churn & recovery
// ---------------------------------------------------------------------

void MapReduceSimulation::init_churn() {
  const SimJobConfig::ChurnConfig& churn = config_.churn;
  collector_.emplace(node_state_.size(),
                     cluster::HeartbeatCollector::Config{
                         .interval = churn.heartbeat_interval,
                         .dead_timeout = churn.dead_timeout});
  dead_check_.resize(node_state_.size());
  task_lost_.assign(board_.task_count(), false);

  // task t <-> block first_block_ + t; create_file allocates contiguous
  // block ids, which the loss bookkeeping relies on.
  const hdfs::FileInfo& info = namenode_.file(file_);
  first_block_ = info.blocks.empty() ? 0 : info.blocks.front();
  for (std::size_t i = 0; i < info.blocks.size(); ++i) {
    if (info.blocks[i] != first_block_ + i) {
      throw std::logic_error("churn: file blocks are not contiguous");
    }
  }

  rereplicator_.emplace(
      queue_, namenode_, network_, cluster_.block_size_bytes,
      churn.rereplication, common::Rng(config_.seed).fork(0xDEAD),
      injector_.up());
  rereplicator_->set_tracer(config_.tracer);
  rereplicator_->set_metrics(config_.metrics);
  rereplicator_->set_spans(config_.spans, &queue_);
  rereplicator_->set_on_replicated(
      [this](hdfs::BlockId block, cluster::NodeIndex dst) {
        on_replica_landed(block, dst);
      });
  if (config_.rebalance.enabled) {
    migration_.emplace(
        queue_, namenode_, network_, cluster_.block_size_bytes,
        config_.rebalance.migration, common::Rng(config_.seed).fork(0xBEEF),
        injector_.up());
    migration_->set_tracer(config_.tracer);
    migration_->set_metrics(config_.metrics);
    migration_->set_spans(config_.spans, &queue_);
    migration_->set_on_committed([this](hdfs::BlockId block,
                                        cluster::NodeIndex from,
                                        cluster::NodeIndex to) {
      on_migration_committed(block, from, to);
    });
    rebalance_rng_ = common::Rng(config_.seed).fork(0x0b1e);
  }
  refresh_policy();
  if (churn.gray_enabled()) init_gray();
}

void MapReduceSimulation::refresh_policy() {
  if (!rereplicator_) return;
  span_begin("policy_refresh");
  placement::PolicyPtr policy;
  if (config_.churn.policy_factory) {
    policy = config_.churn.policy_factory(collector_->estimates(queue_.now()));
  } else {
    policy = placement::make_random_policy(node_state_.size());
  }
  rereplicator_->set_policy(policy);
  if (migration_) {
    migration_->set_policy(policy);
    rebalance_policy_ = std::move(policy);
  }
  span_end();
}

std::optional<TaskId> MapReduceSimulation::task_of(
    hdfs::BlockId block) const {
  if (block < first_block_) return std::nullopt;
  const hdfs::BlockId offset = block - first_block_;
  if (offset >= board_.task_count()) return std::nullopt;
  return static_cast<TaskId>(offset);
}

void MapReduceSimulation::maybe_declare_dead(cluster::NodeIndex node) {
  if (!collector_) return;
  if (is_up(node) || namenode_.is_dead(node)) return;
  if (!collector_->believed_dead(node, queue_.now())) return;
  declare_dead(node);
}

void MapReduceSimulation::declare_dead(cluster::NodeIndex node) {
  NodeState& ns = node_state_[node];
  ++result_.nodes_dead;

  // Message-level detection can be wrong: a node behind a partition or a
  // lossy link is declared dead while it keeps running. Only the
  // NameNode's metadata is written off — the node's attempts (and the
  // transfers it is serving) continue and may still win.
  if (is_up(node)) {
    ++result_.false_dead_declarations;
    if (!false_declared_.empty()) false_declared_[node] = true;
  } else {
    // The DFS client gives up the moment the NameNode declares the
    // source dead: abort transfers still stalled on it (they would
    // otherwise wait out the full client timeout for a node that is not
    // coming back).
    abort_outgoing_fetches(node);
    ns.stall_timeout_event.cancel();
  }

  // Its downtime can no longer delay the job once the replicas are
  // written off and the tasks re-homed; stop charging recovery.
  close_recovery(node);
  ns.undone_home = 0;

  const std::vector<hdfs::BlockId> affected =
      namenode_.mark_node_dead(node);
  if (is_up(node)) {
    // Bytes streaming *into* the written-off node would register a
    // replica on a dead node; fail them so the drivers retry elsewhere.
    // Transfers it serves keep running: its disk still has the bytes.
    if (rereplicator_) rereplicator_->on_node_written_off(node);
    if (migration_) migration_->on_node_written_off(node);
  }
  result_.replicas_dropped += affected.size();
  {
    obs::TraceRecord r;
    r.type = obs::EventType::kNodeDead;
    r.node = node;
    r.aux = static_cast<std::uint32_t>(affected.size());
    trace(r);
  }

  for (const hdfs::BlockId block : affected) {
    {
      // Per-replica write-off detail: which copy was dropped, and
      // whether the holder was actually still up (false positive).
      obs::TraceRecord r;
      r.type = obs::EventType::kReplicaWriteoff;
      r.task = block;
      r.node = node;
      r.aux = is_up(node) ? 1 : 0;
      trace(r);
    }
    unhome_replica(block, node);
    after_replica_drop(block);
  }
  refresh_policy();
}

void MapReduceSimulation::maybe_mark_lost(TaskId task) {
  if (!collector_ || config_.allow_origin_fetch) return;
  if (task_lost_[task]) return;
  if (board_.status(task) == TaskStatus::kDone) return;
  // A live attempt that already holds the block's bytes can still win.
  if (board_.attempt_count(task) > 0) return;
  const hdfs::BlockId block = first_block_ + task;
  if (!namenode_.block(block).replicas.empty()) return;
  task_lost_[task] = true;
  ++tasks_lost_;
  result_.lost_blocks.push_back({block, task});
}

// ---------------------------------------------------------------------
// Replica membership
// ---------------------------------------------------------------------

std::optional<TaskId> MapReduceSimulation::home_replica(
    hdfs::BlockId block, cluster::NodeIndex node) {
  const std::optional<TaskId> task = task_of(block);
  if (!task || board_.status(*task) == TaskStatus::kDone) return std::nullopt;
  if (!board_.is_local_to(*task, node)) {
    board_.add_home(*task, node);
    ++node_state_[node].undone_home;
  }
  if (task_lost_[*task]) {
    // The block was unrecoverable; the readable copy makes the task
    // runnable again.
    task_lost_[*task] = false;
    --tasks_lost_;
    auto& lost = result_.lost_blocks;
    lost.erase(std::remove_if(lost.begin(), lost.end(),
                              [&](const JobResult::LostBlock& lb) {
                                return lb.block == block;
                              }),
               lost.end());
  }
  return task;
}

void MapReduceSimulation::on_replica_landed(hdfs::BlockId block,
                                            cluster::NodeIndex node) {
  // The copy was streamed from a verified survivor: fresh bytes
  // overwrite any rot the destination disk previously held.
  clear_corrupt(block, node);
  const std::optional<TaskId> task = home_replica(block, node);
  if (!task) return;
  {
    obs::TraceRecord r;
    r.type = obs::EventType::kPlacement;
    r.task = block;
    r.node = node;
    r.aux = static_cast<std::uint32_t>(
        namenode_.block(block).replicas.size() - 1);
    trace(r);
  }
  // The task may sit parked with every other replica offline; the new
  // copy makes it schedulable again.
  board_.revive_stalled_for(node, queue_.now());
  if (can_take_work(node)) {
    dispatch(node);
  } else {
    wake_for_task(*task);
  }
}

void MapReduceSimulation::unhome_replica(hdfs::BlockId block,
                                         cluster::NodeIndex node) {
  const std::optional<TaskId> task = task_of(block);
  if (!task || board_.status(*task) == TaskStatus::kDone) return;
  if (!board_.is_local_to(*task, node)) return;
  board_.remove_home(*task, node);
  // Once nothing of the job depends on the node, its downtime stops
  // counting as recovery.
  NodeState& ns = node_state_[node];
  if (ns.undone_home > 0 && --ns.undone_home == 0) close_recovery(node);
}

void MapReduceSimulation::after_replica_drop(hdfs::BlockId block) {
  if (!namenode_.block(block).replicas.empty()) {
    if (rereplicator_) rereplicator_->enqueue(block);
    return;
  }
  ++result_.blocks_lost;
  obs::TraceRecord r;
  r.type = obs::EventType::kReplicaLost;
  r.task = block;
  r.aux = config_.allow_origin_fetch ? 1 : 0;  // recoverable from origin
  trace(r);
  if (const std::optional<TaskId> task = task_of(block)) {
    maybe_mark_lost(*task);
  }
}

void MapReduceSimulation::close_recovery(cluster::NodeIndex node) {
  NodeState& ns = node_state_[node];
  if (ns.recovery_open < 0.0) return;
  result_.overhead.recovery += queue_.now() - ns.recovery_open;
  ns.recovery_open = -1.0;
}

// ---------------------------------------------------------------------
// Gray failures
// ---------------------------------------------------------------------

void MapReduceSimulation::init_gray() {
  const SimJobConfig::ChurnConfig& churn = config_.churn;
  gray_ = true;
  message_mode_ = churn.message_level();
  hb_rng_ = common::Rng(config_.seed).fork(0xb347);
  corrupt_rng_ = common::Rng(config_.seed).fork(0xb17f);
  slow_factor_.assign(node_state_.size(), 1.0);

  if (message_mode_) {
    partition_count_.assign(node_state_.size(), 0);
    deferred_dead_.assign(node_state_.size(), false);
    false_declared_.assign(node_state_.size(), false);
    partition_nodes_.resize(churn.partitions.size());
    for (std::size_t p = 0; p < churn.partitions.size(); ++p) {
      const SimJobConfig::ChurnConfig::Partition& part = churn.partitions[p];
      std::vector<cluster::NodeIndex>& members = partition_nodes_[p];
      if (part.domain >= 0) {
        if (churn.domain_of.empty()) {
          throw std::invalid_argument(
              "simulation: domain partition requires churn.domain_of");
        }
        for (cluster::NodeIndex n = 0; n < node_state_.size(); ++n) {
          if (n < churn.domain_of.size() &&
              churn.domain_of[n] == static_cast<std::uint32_t>(part.domain)) {
            members.push_back(n);
          }
        }
      } else {
        for (const std::uint32_t n : part.nodes) {
          if (n >= node_state_.size()) {
            throw std::invalid_argument(
                "simulation: partition node out of range");
          }
          members.push_back(n);
        }
      }
      queue_.schedule(part.at, [this, p] { start_partition(p); });
      queue_.schedule(part.heal_at, [this, p] { heal_partition(p); });
    }
    // Round 0 doubles as registration (see on_heartbeat_round).
    queue_.schedule(0.0, [this] { on_heartbeat_round(); });
  }

  for (std::size_t s = 0; s < churn.stragglers.size(); ++s) {
    const SimJobConfig::ChurnConfig::Straggler& st = churn.stragglers[s];
    if (st.node >= node_state_.size()) {
      throw std::invalid_argument("simulation: straggler node out of range");
    }
    queue_.schedule(st.at, [this, s] { start_straggler(s); });
    queue_.schedule(st.until, [this, s] { end_straggler(s); });
  }

  for (const SimJobConfig::ChurnConfig::Corruption& c : churn.corruptions) {
    if (c.block >= board_.task_count()) {
      throw std::invalid_argument("simulation: corruption block out of range");
    }
    const hdfs::BlockId block = first_block_ + c.block;
    const std::int64_t hint = c.node;
    queue_.schedule(c.at, [this, block, hint] {
      inject_corruption(block, hint);
    });
  }
  if (churn.bitrot_rate > 0.0) {
    queue_.schedule(corrupt_rng_.exponential(churn.bitrot_rate),
                    [this] { on_bitrot(); });
  }
  if (churn.scan_interval > 0.0) {
    queue_.schedule(churn.scan_interval, [this] { on_scan(); });
  }
}

void MapReduceSimulation::on_heartbeat_round() {
  const common::Seconds now = queue_.now();
  for (cluster::NodeIndex i = 0; i < node_state_.size(); ++i) {
    bool delivered = false;
    if (is_up(i) && !is_partitioned(i)) {
      bool lost = false;
      if (config_.churn.heartbeat_loss_prob > 0.0) {
        lost = hb_rng_.uniform() < config_.churn.heartbeat_loss_prob;
      }
      if (lost) {
        ++result_.heartbeats_lost;
      } else {
        delivered = true;
      }
    }
    if (delivered) {
      const bool was_declared = namenode_.is_dead(i);
      const bool was_deferred = deferred_dead_[i];
      collector_->observe_heartbeat(i, now);
      if (was_declared) {
        const auto [restored, trimmed] = revive_declared_dead(i);
        if (false_declared_[i]) {
          false_declared_[i] = false;
          obs::TraceRecord r;
          r.type = obs::EventType::kNodeRevived;
          r.node = i;
          r.task = restored;
          r.aux = trimmed;
          trace(r);
        }
        // Restored homes may unpark tasks whose every other holder was
        // written off; the node is up (it just beat), so let it pull.
        board_.revive_stalled_for(i, now);
        if (can_take_work(i)) dispatch(i);
      } else if (was_deferred) {
        rescue_deferred(i);
      }
    } else if (!hb_registered_) {
      // Registration round: a node silent at t = 0 would otherwise stay
      // in the collector's transition-mode default (believed up forever)
      // since only delivered beats flip a node to message mode. Arm
      // transition-style detection so a permanently absent node is still
      // declared eventually.
      collector_->notify_down(i, now);
    }
  }
  hb_registered_ = true;
  sweep_believed_dead();
  // Keep beating unless the whole pool permanently departed — then the
  // queue must drain so run() can declare no_live_nodes.
  if (!pool_departed()) {
    queue_.schedule(now + config_.churn.heartbeat_interval,
                    [this] { on_heartbeat_round(); });
  }
}

void MapReduceSimulation::sweep_believed_dead() {
  const common::Seconds now = queue_.now();
  for (cluster::NodeIndex i = 0; i < node_state_.size(); ++i) {
    if (namenode_.is_dead(i) || deferred_dead_[i]) continue;
    if (!collector_->believed_dead(i, now)) continue;
    note_believed_dead(i);
  }
}

void MapReduceSimulation::note_believed_dead(cluster::NodeIndex node) {
  const common::Seconds now = queue_.now();
  if (config_.churn.safe_mode_threshold > 0.0) {
    // A mass of believed-dead declarations inside one detection window
    // smells like a partition, not real deaths: hold the write-offs.
    const common::Seconds window = collector_->detection_latency();
    auto& times = recent_dead_times_;
    times.erase(
        std::remove_if(times.begin(), times.end(),
                       [&](common::Seconds t) { return now - t > window; }),
        times.end());
    times.push_back(now);
    if (!safe_mode_) {
      std::size_t fleet = 0;
      for (cluster::NodeIndex i = 0; i < node_state_.size(); ++i) {
        if (!namenode_.is_dead(i)) ++fleet;
      }
      const double fraction =
          fleet > 0 ? static_cast<double>(times.size()) /
                          static_cast<double>(fleet)
                    : 1.0;
      if (fraction >= config_.churn.safe_mode_threshold) {
        safe_mode_ = true;
        ++result_.safe_mode_entries;
        obs::TraceRecord r;
        r.type = obs::EventType::kSafeModeEnter;
        r.aux = static_cast<std::uint32_t>(times.size());
        r.v0 = fraction;
        trace(r);
        safe_mode_event_.cancel();
        safe_mode_event_ = queue_.schedule(
            now + config_.churn.safe_mode_hold,
            [this] { on_safe_mode_expire(); });
      }
    }
    if (safe_mode_) {
      deferred_dead_[node] = true;
      ++deferred_count_;
      ++result_.safe_mode_deferrals;
      return;
    }
  }
  declare_dead(node);
}

void MapReduceSimulation::on_safe_mode_expire() {
  if (!safe_mode_) return;
  safe_mode_ = false;
  std::uint32_t applied = 0;
  for (cluster::NodeIndex i = 0; i < node_state_.size(); ++i) {
    if (!deferred_dead_[i]) continue;
    deferred_dead_[i] = false;
    ++applied;
    declare_dead(i);
  }
  deferred_count_ = 0;
  obs::TraceRecord r;
  r.type = obs::EventType::kSafeModeExit;
  r.task = applied;
  r.aux = applied == 0 ? 1 : 0;
  trace(r);
}

void MapReduceSimulation::rescue_deferred(cluster::NodeIndex node) {
  deferred_dead_[node] = false;
  if (deferred_count_ > 0) --deferred_count_;
  ++result_.safe_mode_rescues;
  if (safe_mode_ && deferred_count_ == 0) {
    // Everyone the window suspected has reported back: heal out early
    // with no write-off at all.
    safe_mode_ = false;
    safe_mode_event_.cancel();
    obs::TraceRecord r;
    r.type = obs::EventType::kSafeModeExit;
    r.task = 0;
    r.aux = 1;
    trace(r);
  }
}

std::pair<std::uint32_t, std::uint32_t>
MapReduceSimulation::revive_declared_dead(cluster::NodeIndex node) {
  // Declared dead, then heard from again: the node's disk still holds
  // every written-off replica. revive_node acts as a block report —
  // copies of blocks still under target are re-registered; blocks
  // re-replication already refilled shed their excess copy (preferring a
  // holder whose domain held a duplicate).
  ++result_.nodes_resurrected;
  const hdfs::NameNode::ReviveReport report =
      namenode_.revive_node(node);
  for (const hdfs::BlockId block : report.restored) {
    {
      obs::TraceRecord r;
      r.type = obs::EventType::kReplicaRestore;
      r.task = block;
      r.node = node;
      trace(r);
    }
    home_replica(block, node);
  }
  for (const hdfs::NameNode::ReplicaDrop& drop : report.trimmed) {
    {
      obs::TraceRecord r;
      r.type = obs::EventType::kReplicaTrim;
      r.task = drop.block;
      r.node = drop.node;
      trace(r);
    }
    // Trimming deletes the physical copy, and any rot on it.
    clear_corrupt(drop.block, drop.node);
    // drop.node == node means the disk copy itself was discarded:
    // it never reached the board, nothing to unwind.
    if (drop.node != node) unhome_replica(drop.block, drop.node);
  }
  refresh_policy();
  return {static_cast<std::uint32_t>(report.restored.size()),
          static_cast<std::uint32_t>(report.trimmed.size())};
}

void MapReduceSimulation::start_partition(std::size_t index) {
  for (const cluster::NodeIndex n : partition_nodes_[index]) {
    ++partition_count_[n];
  }
  obs::TraceRecord r;
  r.type = obs::EventType::kPartitionStart;
  r.aux = static_cast<std::uint32_t>(partition_nodes_[index].size());
  trace(r);
}

void MapReduceSimulation::heal_partition(std::size_t index) {
  for (const cluster::NodeIndex n : partition_nodes_[index]) {
    --partition_count_[n];
  }
  obs::TraceRecord r;
  r.type = obs::EventType::kPartitionHeal;
  r.aux = static_cast<std::uint32_t>(partition_nodes_[index].size());
  trace(r);
}

void MapReduceSimulation::start_straggler(std::size_t index) {
  const SimJobConfig::ChurnConfig::Straggler& st =
      config_.churn.stragglers[index];
  // Overlapping degradations: the worst factor wins until its end event.
  slow_factor_[st.node] = std::max(slow_factor_[st.node], st.slow_factor);
  obs::TraceRecord r;
  r.type = obs::EventType::kStragglerStart;
  r.node = st.node;
  r.v0 = st.slow_factor;
  trace(r);
}

void MapReduceSimulation::end_straggler(std::size_t index) {
  const SimJobConfig::ChurnConfig::Straggler& st =
      config_.churn.stragglers[index];
  slow_factor_[st.node] = 1.0;
  obs::TraceRecord r;
  r.type = obs::EventType::kStragglerEnd;
  r.node = st.node;
  trace(r);
}

bool MapReduceSimulation::replica_corrupt(hdfs::BlockId block,
                                          cluster::NodeIndex node) const {
  for (const auto& [b, n] : corrupt_) {
    if (b == block && n == node) return true;
  }
  return false;
}

void MapReduceSimulation::clear_corrupt(hdfs::BlockId block,
                                        cluster::NodeIndex node) {
  for (auto it = corrupt_.begin(); it != corrupt_.end(); ++it) {
    if (it->first == block && it->second == node) {
      corrupt_.erase(it);
      return;
    }
  }
}

void MapReduceSimulation::inject_corruption(hdfs::BlockId block,
                                            std::int64_t node_hint) {
  const std::vector<cluster::NodeIndex>& replicas =
      namenode_.block(block).replicas;
  cluster::NodeIndex victim;
  if (node_hint >= 0) {
    victim = static_cast<cluster::NodeIndex>(node_hint);
    if (std::find(replicas.begin(), replicas.end(), victim) ==
        replicas.end()) {
      return;  // the targeted copy no longer exists
    }
  } else {
    if (replicas.empty()) return;
    victim = replicas[corrupt_rng_.uniform_index(replicas.size())];
  }
  if (replica_corrupt(block, victim)) return;
  corrupt_.push_back({block, victim});
  ++result_.replicas_corrupted;
  obs::TraceRecord r;
  r.type = obs::EventType::kReplicaCorrupt;
  r.task = block;
  r.node = victim;
  trace(r);
}

void MapReduceSimulation::on_bitrot() {
  const std::size_t tasks = board_.task_count();
  if (tasks > 0) {
    const hdfs::BlockId block =
        first_block_ + corrupt_rng_.uniform_index(tasks);
    inject_corruption(block, /*node_hint=*/-1);
  }
  if (!pool_departed()) {
    queue_.schedule(
        queue_.now() + corrupt_rng_.exponential(config_.churn.bitrot_rate),
        [this] { on_bitrot(); });
  }
}

void MapReduceSimulation::on_scan() {
  const std::size_t tasks = board_.task_count();
  const int budget = config_.churn.scan_blocks_per_sweep;
  for (int k = 0; k < budget && tasks > 0; ++k) {
    const hdfs::BlockId block = first_block_ + scan_cursor_;
    scan_cursor_ = (scan_cursor_ + 1) % tasks;
    ++result_.blocks_scanned;
    if (corrupt_.empty()) continue;
    // Copy: handle_corrupt_replica mutates the replica list.
    const std::vector<cluster::NodeIndex> holders =
        namenode_.block(block).replicas;
    for (const cluster::NodeIndex n : holders) {
      if (!is_up(n)) continue;  // can't read a down disk
      if (replica_corrupt(block, n)) handle_corrupt_replica(block, n, 2);
    }
  }
  if (!pool_departed()) {
    queue_.schedule(queue_.now() + config_.churn.scan_interval,
                    [this] { on_scan(); });
  }
}

void MapReduceSimulation::handle_corrupt_replica(hdfs::BlockId block,
                                                 cluster::NodeIndex node,
                                                 std::uint32_t path) {
  // A copy written off while its holder kept serving it is already out
  // of the metadata. It keeps its corruption mark, so a revive block
  // report cannot restore it as clean.
  const bool registered = namenode_.block(block).hosted_on(node);
  if (registered) clear_corrupt(block, node);
  ++result_.corrupt_reads;
  {
    obs::TraceRecord r;
    r.type = obs::EventType::kCorruptRead;
    r.reason = obs::TraceReason::kChecksum;
    r.task = block;
    r.node = node;
    r.aux = path;
    trace(r);
  }
  if (!registered) return;
  // The copy is useless: trim it from the metadata so no later read
  // picks it, re-home the task, and feed the block to recovery.
  namenode_.remove_replica(block, node);
  unhome_replica(block, node);
  after_replica_drop(block);
}

// ---------------------------------------------------------------------
// Online rebalancing
// ---------------------------------------------------------------------

void MapReduceSimulation::maybe_rebalance(std::uint32_t alarm_count) {
  const common::Seconds now = queue_.now();
  if (last_rebalance_at_ >= 0.0 &&
      now - last_rebalance_at_ < config_.rebalance.cooldown) {
    return;
  }
  last_rebalance_at_ = now;
  span_begin("rebalance_pass");
  ++result_.rebalance_triggers;

  // Re-estimate and rebuild the placement policies from the collector's
  // current (lambda, mu) beliefs — the drift alarm means the old
  // weights quote the wrong cluster.
  refresh_policy();

  // Eq. 5 quotes under the refreshed beliefs decide which replicas are
  // now badly placed: a holder quoting worse than hysteresis * the
  // median of live nodes has degraded enough to vacate.
  const std::vector<double> quote =
      avail::expected_task_times(collector_->estimates(now), config_.gamma);
  std::vector<double> live_quotes;
  live_quotes.reserve(quote.size());
  for (std::size_t i = 0; i < quote.size(); ++i) {
    if (is_up(i) && !namenode_.is_dead(i) && std::isfinite(quote[i])) {
      live_quotes.push_back(quote[i]);
    }
  }
  std::uint32_t submitted = 0;
  if (!live_quotes.empty()) {
    std::sort(live_quotes.begin(), live_quotes.end());
    const double median = live_quotes[live_quotes.size() / 2];
    const double threshold = config_.rebalance.hysteresis * median;
    const hdfs::FileInfo& info = namenode_.file(file_);
    for (const hdfs::BlockId block : info.blocks) {
      const std::optional<TaskId> task = task_of(block);
      if (task && board_.status(*task) == TaskStatus::kDone) continue;
      // One in-flight move per block: a holder being vacated by an
      // earlier pass is still listed in replicas, and vacating it a
      // second time would inflate the replica count on commit.
      bool block_pending = false;
      for (const hdfs::ReplicaMove& m : namenode_.pending_moves()) {
        if (m.block == block) {
          block_pending = true;
          break;
        }
      }
      if (block_pending) continue;
      const std::vector<cluster::NodeIndex> holders =
          namenode_.block(block).replicas;
      for (std::size_t r = 0; r < holders.size(); ++r) {
        const cluster::NodeIndex holder = holders[r];
        const bool degraded =
            std::isfinite(quote[holder])
                ? quote[holder] > threshold
                : true;  // +inf quote: the node looks unusable
        if (!degraded) continue;
        const std::optional<cluster::NodeIndex> dst = draw_replica_target(
            namenode_, block, static_cast<std::uint32_t>(r), injector_.up(),
            *rebalance_policy_, rebalance_rng_);
        if (!dst) continue;  // nowhere better to put it right now
        namenode_.begin_move(block, holder, *dst);
        migration_->submit({block, holder, *dst});
        ++submitted;
      }
    }
  }
  trace({.type = obs::EventType::kRebalanceTrigger,
         .task = submitted,
         .aux = alarm_count});
  span_end();
}

void MapReduceSimulation::on_migration_committed(hdfs::BlockId block,
                                                 cluster::NodeIndex from,
                                                 cluster::NodeIndex to) {
  // The source copy is deleted along with any rot on it.
  clear_corrupt(block, from);
  unhome_replica(block, from);
  on_replica_landed(block, to);
}

// ---------------------------------------------------------------------
// Time-series sampling & calibration
// ---------------------------------------------------------------------

void MapReduceSimulation::on_sample() {
  span_begin("heartbeat_sweep");
  const common::Seconds now = queue_.now();
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.set(gauge_nodes_up_, static_cast<double>(injector_.up().count()));
    m.set(gauge_tasks_done_, static_cast<double>(board_.done_count()));
    m.set(gauge_attempts_running_, static_cast<double>(running_.size()));
    if (rereplicator_) {
      m.set(gauge_under_replicated_,
            static_cast<double>(rereplicator_->backlog()));
    }
    if (config_.calibration != nullptr) {
      m.set(gauge_cal_ratio_, config_.calibration->cluster_ratio());
    }
  }
  if (config_.calibration != nullptr && collector_ &&
      config_.calibration->has_reference()) {
    const std::vector<avail::InterruptionParams> est =
        collector_->estimates(now);
    const std::size_t n = est.size();
    std::vector<double> lambda_hat(n);
    std::vector<double> mu_hat(n);
    std::vector<common::Seconds> changed(n);
    for (std::size_t i = 0; i < n; ++i) {
      lambda_hat[i] = est[i].lambda;
      mu_hat[i] = est[i].mu;
      changed[i] = injector_.departed_at(static_cast<cluster::NodeIndex>(i));
    }
    const std::vector<obs::DriftAlarm> alarms =
        config_.calibration->cusum_step(now, lambda_hat, mu_hat, changed);
    for (const obs::DriftAlarm& alarm : alarms) {
      obs::TraceRecord r;
      r.type = obs::EventType::kPredictorDrift;
      r.node = alarm.node;
      r.v0 = alarm.score;
      r.v1 = alarm.latency;
      trace(r);
      if (config_.metrics != nullptr) {
        config_.metrics->add(ctr_drift_alarms_);
      }
    }
    if (migration_ && !alarms.empty()) {
      maybe_rebalance(static_cast<std::uint32_t>(alarms.size()));
    }
  }
  if (config_.metrics != nullptr) config_.metrics->sample(now);
  span_end();
  // Keep ticking unless the whole pool permanently departed — then the
  // queue must be allowed to drain so run() can declare no_live_nodes
  // instead of sampling forever.
  if (!(collector_ && pool_departed())) {
    queue_.schedule(now + config_.sample_dt, [this] { on_sample(); });
  }
}

JobResult MapReduceSimulation::run() {
  result_ = JobResult{};
  result_.tasks = board_.task_count();
  if (config_.record_completion_times) {
    result_.completion_times.assign(board_.task_count(), -1.0);
    result_.winner_nodes.assign(board_.task_count(), 0);
  }

  {
    obs::TraceRecord r;
    r.type = obs::EventType::kJobStart;
    r.node = static_cast<std::uint32_t>(node_state_.size());
    r.task = static_cast<std::uint32_t>(board_.task_count());
    trace(r);
  }

  injector_.start();
  queue_.schedule(0.0, [this] {
    for (cluster::NodeIndex i = 0; i < node_state_.size(); ++i) {
      if (is_up(i)) dispatch(i);
    }
  });
  if (config_.sample_dt > 0.0 &&
      (config_.metrics != nullptr || config_.calibration != nullptr)) {
    queue_.schedule(config_.sample_dt, [this] { on_sample(); });
  }

  const bool done = queue_.run_until([this] {
    return board_.done_count() + tasks_lost_ >= board_.task_count();
  });
  if (!done) {
    if (!collector_) {
      throw std::logic_error(
          "simulation stalled: event queue drained before job completion");
    }
    // Churn run ran out of events with tasks unfinished: no live node can
    // make progress anymore (typically the whole pool departed). Report
    // the leftovers as lost instead of spinning.
    result_.failed = true;
    result_.failure = "no_live_nodes";
    for (TaskId t = 0; t < board_.task_count(); ++t) {
      if (board_.status(t) == TaskStatus::kDone || task_lost_[t]) continue;
      task_lost_[t] = true;
      ++tasks_lost_;
      result_.lost_blocks.push_back(
          {static_cast<hdfs::BlockId>(first_block_ + t), t});
    }
  } else if (tasks_lost_ > 0) {
    result_.failed = true;
    result_.failure = "data_loss";
  }
  result_.tasks_lost = tasks_lost_;

  result_.elapsed =
      result_.failed ? std::max(last_done_at_, queue_.now()) : last_done_at_;
  result_.locality =
      result_.tasks > 0
          ? static_cast<double>(result_.local_wins) /
                static_cast<double>(result_.tasks)
          : 0.0;
  result_.node_transitions = injector_.transitions();
  result_.events_processed = queue_.processed();
  result_.network_bytes = network_.bytes_transferred();
  if (collector_) {
    result_.nodes_departed = injector_.departures();
    const hdfs::NameNode::Stats& hs = namenode_.stats();
    result_.replicas_restored = hs.replicas_restored;
    result_.over_replicated_trimmed = hs.over_replicated_trimmed;
    result_.duplicate_replica_inserts = hs.duplicate_replica_inserts;
    const ReplicaMover::Stats& rs = rereplicator_->stats();
    result_.rereplications = rs.landed;
    result_.rereplication_retries = rs.retries;
    result_.rereplication_giveups = rs.giveups;
    result_.rereplication_bytes = rs.bytes_moved;
    result_.max_under_replicated = rs.max_backlog;
  }
  for (const auto& [block, node] : corrupt_) {
    result_.corrupt_remaining.push_back({block, node});
  }
  if (migration_) {
    // Drop moves still queued or on the wire so a NameNode that
    // outlives this job carries no orphan pending moves.
    migration_->cancel_all();
    const ReplicaMover::Stats& ms = migration_->stats();
    result_.migrations_submitted = migration_->move_stats().submitted;
    result_.migrations_committed = ms.landed;
    result_.migration_retries = ms.retries;
    result_.migration_giveups = ms.giveups;
    result_.migration_redraws = migration_->move_stats().redraws;
    result_.migration_bytes = ms.bytes_moved;
  }

  // Close out costs still open at the instant the job finished.
  for (cluster::NodeIndex i = 0; i < node_state_.size(); ++i) {
    const NodeState& ns = node_state_[i];
    if (ns.recovery_open >= 0.0) {
      result_.overhead.recovery +=
          std::max(0.0, result_.elapsed - ns.recovery_open);
    }
    for (const AttemptId id : ns.attempts) {
      const Attempt& a = attempts_[id];
      if (a.alive && a.fetching) {
        // A still-stalled transfer stopped moving bytes when its source
        // went down; that span is the source's downtime, not migration
        // (mirrors the shift projected_fetch_end applies on resume).
        common::Seconds until = result_.elapsed;
        if (a.transfer_stalled) {
          const common::Seconds down_at = node_state_[a.fetch_src].down_at;
          if (down_at >= 0.0) until = std::min(until, down_at);
        }
        result_.overhead.migration += std::max(0.0, until - a.fetch.start);
      }
    }
  }

  // Lost tasks never delivered their payload: only completed tasks count
  // as base work (== tasks * gamma whenever the job succeeds).
  result_.overhead.base =
      static_cast<double>(board_.done_count()) * config_.gamma;
  result_.overhead.elapsed = result_.elapsed;
  result_.overhead.node_count = cluster_.size();
  result_.overhead.finalize();

  if (config_.tracer != nullptr) {
    obs::TraceRecord r;
    r.t = result_.elapsed;
    r.type = obs::EventType::kJobEnd;
    r.task = static_cast<std::uint32_t>(result_.tasks);
    config_.tracer->record(r);
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    const auto add = [&m](const char* name, double v) {
      m.add(m.counter(name), v);
    };
    add("sim.tasks", static_cast<double>(result_.tasks));
    add("sim.attempts_started",
        static_cast<double>(result_.attempts_started));
    add("sim.attempts_failed", static_cast<double>(result_.attempts_failed));
    add("sim.attempts_killed", static_cast<double>(result_.attempts_killed));
    add("sim.local_wins", static_cast<double>(result_.local_wins));
    add("sim.remote_wins", static_cast<double>(result_.remote_wins));
    add("sim.origin_wins", static_cast<double>(result_.origin_wins));
    add("sim.transfers_started",
        static_cast<double>(result_.transfers_started));
    add("sim.transfers_aborted",
        static_cast<double>(result_.transfers_aborted));
    add("sim.node_transitions",
        static_cast<double>(result_.node_transitions));
    add("sim.events_processed",
        static_cast<double>(result_.events_processed));
    const cluster::Network::Stats& net = network_.stats();
    add("net.requests", static_cast<double>(net.requests));
    add("net.aborts", static_cast<double>(net.aborts));
    add("net.admission_wait_s_total", net.admission_wait);
    add("net.reclaimed_s_total", net.reclaimed);
    add("net.bytes_transferred",
        static_cast<double>(network_.bytes_transferred()));
    m.set(m.gauge("sim.elapsed_s_max"), result_.elapsed);
    // Churn counters appear only on churn runs so churn-free metric
    // output stays byte-identical to before.
    if (collector_) {
      add("sim.jobs_failed", result_.failed ? 1.0 : 0.0);
      add("sim.nodes_departed", static_cast<double>(result_.nodes_departed));
      add("sim.nodes_dead", static_cast<double>(result_.nodes_dead));
      add("sim.nodes_resurrected",
          static_cast<double>(result_.nodes_resurrected));
      add("sim.replicas_dropped",
          static_cast<double>(result_.replicas_dropped));
      add("sim.blocks_lost", static_cast<double>(result_.blocks_lost));
      add("sim.tasks_lost", static_cast<double>(result_.tasks_lost));
      add("hdfs.replicas_restored",
          static_cast<double>(result_.replicas_restored));
      add("hdfs.over_replicated_trimmed",
          static_cast<double>(result_.over_replicated_trimmed));
      add("hdfs.duplicate_replica_inserts",
          static_cast<double>(result_.duplicate_replica_inserts));
    }
    // Gray counters appear only when a gray knob is set, so crash-stop
    // churn metric output stays byte-identical to before.
    if (gray_) {
      add("sim.heartbeats_lost", static_cast<double>(result_.heartbeats_lost));
      add("sim.false_dead_declarations",
          static_cast<double>(result_.false_dead_declarations));
      add("sim.replicas_corrupted",
          static_cast<double>(result_.replicas_corrupted));
      add("sim.corrupt_reads", static_cast<double>(result_.corrupt_reads));
      add("sim.blocks_scanned", static_cast<double>(result_.blocks_scanned));
      add("sim.safe_mode_entries",
          static_cast<double>(result_.safe_mode_entries));
      add("sim.safe_mode_deferrals",
          static_cast<double>(result_.safe_mode_deferrals));
      add("sim.safe_mode_rescues",
          static_cast<double>(result_.safe_mode_rescues));
    }
    // Rebalance counters appear only with the loop on, so loop-off
    // metric output stays byte-identical to before.
    if (migration_) {
      add("sim.rebalance_triggers",
          static_cast<double>(result_.rebalance_triggers));
    }
    // Scheduler counters appear only with a non-baseline policy, so
    // default-scheduler metric output stays byte-identical to before.
    if (scheduler_->kind() != SchedulerKind::kBaseline) {
      add("scheduler.speculative_launches",
          static_cast<double>(result_.speculative_launches));
      add("scheduler.speculative_wins",
          static_cast<double>(result_.speculative_wins));
      add("scheduler.redundant_launches",
          static_cast<double>(result_.redundant_launches));
      add("scheduler.redundant_waste_bytes",
          static_cast<double>(result_.redundant_waste_bytes));
    }
  }
  return result_;
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void MapReduceSimulation::dispatch(cluster::NodeIndex node) {
  NodeState& ns = node_state_[node];
  if (!is_up(node)) return;
  ns.idle_flagged = false;
  while (can_take_work(node)) {
    if (!assign_one(node)) {
      mark_idle(node);
      break;
    }
  }
  arm_ripe_wake();
}

bool MapReduceSimulation::assign_one(cluster::NodeIndex node) {
  const int extra = scheduler_->extra_initial_launches();
  if (auto task = board_.take_local(node)) {
    start_attempt(*task, node, node, /*speculative=*/false);
    if (extra > 0) launch_redundant(*task, node);
    return true;
  }
  std::optional<cluster::NodeIndex> src;
  if (auto task = board_.take_remote(queue_.now(), [this, &src](TaskId t) {
        src = usable_source(t);
        return src.has_value();
      })) {
    start_attempt(*task, node, *src, /*speculative=*/false);
    if (extra > 0) launch_redundant(*task, node);
    return true;
  }
  if (config_.allow_origin_fetch) {
    if (auto task = board_.take_stalled(queue_.now(), origin_delay_)) {
      // A parked task can have regained a usable replica since it was
      // parked; prefer it over the origin.
      start_attempt(*task, node, *fallback_source(*task),
                    /*speculative=*/false);
      if (extra > 0) launch_redundant(*task, node);
      return true;
    }
  }
  if (config_.scheduler.speculation && try_speculate(node)) return true;
  return false;
}

bool MapReduceSimulation::try_speculate(cluster::NodeIndex node) {
  // The policy prefers duplicating a slow attempt whose block already
  // lives here — this is both the paper's "interrupted task re-executed
  // on the same node" path and the rescue of local tasks held by remote
  // thieves stuck behind congested uplinks — falling back to the
  // globally slowest laggard. The simulator only resolves where the
  // duplicate reads its block from.
  const auto pick = scheduler_->pick_speculative(node, *this);
  if (!pick) return false;
  const TaskId task = *pick;
  const std::optional<cluster::NodeIndex> src =
      board_.is_local_to(task, node) ? std::optional(node)
                                     : fallback_source(task);
  if (!src) return false;
  start_attempt(task, node, *src, /*speculative=*/true);
  return true;
}

void MapReduceSimulation::launch_redundant(TaskId task,
                                           cluster::NodeIndex primary) {
  // The primary launch can dead-end (corrupt local read with no
  // fallback); duplicating a task that never started would run ahead of
  // its own board state.
  if (board_.status(task) != TaskStatus::kRunning ||
      board_.attempt_count(task) == 0) {
    return;
  }
  const std::size_t want = static_cast<std::size_t>(
      1 + scheduler_->extra_initial_launches());
  // Replica holders first (the duplicate reads locally), then any other
  // up node with a free slot, in index order — deterministic and
  // independent of dispatch history.
  const auto running_here = [&](cluster::NodeIndex n) {
    for (const AttemptId id : board_.attempts_of(task)) {
      if (attempts_[id].node == n) return true;
    }
    return false;
  };
  const auto try_launch = [&](cluster::NodeIndex cand) {
    if (!can_take_work(cand)) return;
    if (cand == primary || running_here(cand)) return;
    cluster::NodeIndex src;
    if (board_.is_local_to(task, cand)) {
      src = cand;
    } else if (const auto remote = usable_source(task)) {
      src = *remote;
    } else {
      // No reachable replica and duplicates never burn origin
      // bandwidth: degrade to fewer copies.
      return;
    }
    // start_attempt can dead-end (corrupt local read, nowhere to fall
    // back to) without launching; only a real launch is re-labelled
    // from the reactive-speculation counter to the up-front one.
    const std::uint64_t before = result_.speculative_launches;
    start_attempt(task, cand, src, /*speculative=*/true);
    if (result_.speculative_launches > before) {
      --result_.speculative_launches;
      ++result_.redundant_launches;
    }
  };
  for (const cluster::NodeIndex home : board_.home_nodes(task)) {
    if (board_.attempt_count(task) >= want) return;
    try_launch(home);
  }
  for (cluster::NodeIndex n = 0; n < node_state_.size(); ++n) {
    if (board_.attempt_count(task) >= want) return;
    try_launch(n);
  }
}

void MapReduceSimulation::mark_idle(cluster::NodeIndex node) {
  NodeState& ns = node_state_[node];
  if (!ns.idle_flagged) {
    ns.idle_flagged = true;
    idle_stack_.push_back(node);
  }
}

bool MapReduceSimulation::wake_one_idle() {
  while (!idle_stack_.empty()) {
    const cluster::NodeIndex node = idle_stack_.back();
    idle_stack_.pop_back();
    NodeState& ns = node_state_[node];
    if (!ns.idle_flagged) continue;
    ns.idle_flagged = false;
    if (can_take_work(node)) {
      dispatch(node);
      return true;
    }
  }
  return false;
}

void MapReduceSimulation::arm_ripe_wake() {
  if (!config_.allow_origin_fetch) return;
  const auto park = board_.next_stalled_park();
  if (!park) return;
  const common::Seconds ripe_at = *park + origin_delay_;
  // Already-ripe tasks are picked up by take_stalled on the next regular
  // dispatch; arming for them would spin the event loop in place.
  if (ripe_at <= queue_.now()) return;
  if (ripe_wake_at_ >= 0.0 && ripe_wake_at_ <= ripe_at) return;
  ripe_wake_at_ = ripe_at;
  queue_.schedule(ripe_at, [this] { on_ripe_wake(); });
}

void MapReduceSimulation::on_ripe_wake() {
  ripe_wake_at_ = -1.0;
  // Hand ripe stalled tasks to idle nodes until either runs out; the
  // dispatched nodes pull the tasks through the normal assign path.
  while (true) {
    const auto park = board_.next_stalled_park();
    if (!park || queue_.now() - *park < origin_delay_) break;
    if (!wake_one_idle()) break;
  }
  arm_ripe_wake();
}

void MapReduceSimulation::wake_for_task(TaskId task) {
  for (const cluster::NodeIndex home : board_.home_nodes(task)) {
    if (can_take_work(home)) {
      dispatch(home);
      return;
    }
  }
  wake_one_idle();
}

// ---------------------------------------------------------------------
// Attempt lifecycle
// ---------------------------------------------------------------------

MapReduceSimulation::AttemptId MapReduceSimulation::alloc_attempt() {
  if (!attempt_free_list_.empty()) {
    const AttemptId id = attempt_free_list_.back();
    attempt_free_list_.pop_back();
    attempts_[id] = Attempt{};
    return id;
  }
  attempts_.emplace_back();
  return static_cast<AttemptId>(attempts_.size() - 1);
}

void MapReduceSimulation::free_attempt(AttemptId id) {
  attempt_free_list_.push_back(id);
}

void MapReduceSimulation::start_attempt(TaskId task, cluster::NodeIndex node,
                                        cluster::NodeIndex src,
                                        bool speculative) {
  if (!can_take_work(node)) {
    throw std::logic_error("start_attempt: node cannot take work");
  }
  if (!corrupt_.empty() && src == node &&
      replica_corrupt(first_block_ + task, node)) {
    // The local read's checksum fails before any work starts: trim the
    // rotten copy and fall back to a remote holder, then the origin.
    handle_corrupt_replica(first_block_ + task, node, /*path=*/0);
    const std::optional<cluster::NodeIndex> alt = fallback_source(task);
    // Nowhere to read from right now: the task stays pending and is
    // revived by recovery (or reported lost by handle_corrupt_replica).
    if (!alt) return;
    src = *alt;
  }
  if (!speculative) {
    board_.mark_running(task);
  }

  const AttemptId id = alloc_attempt();
  Attempt& a = attempts_[id];
  a.task = task;
  a.node = node;
  a.alive = true;
  a.local = (src == node);
  a.speculative = speculative;
  node_state_[node].attempts.push_back(id);
  a.running_index = static_cast<std::uint32_t>(running_.size());
  running_.push_back(id);
  board_.register_attempt(task, id);
  ++result_.attempts_started;
  if (speculative) ++result_.speculative_launches;

  const common::Seconds now = queue_.now();
  if (!task_first_start_.empty() && task_first_start_[task] < 0.0) {
    task_first_start_[task] = now;
  }
  if (a.local) {
    a.exec_start = now;
    // A degraded host executes slower; the launch projection keeps the
    // healthy rate so speculation sees the slippage.
    a.exec_end = now + config_.gamma * slow_factor(node);
    a.nominal_end = now + config_.gamma;
    a.event = queue_.schedule(a.exec_end,
                              [this, id] { on_attempt_complete(id); });
    {
      obs::TraceRecord r;
      r.type = obs::EventType::kAttemptStart;
      r.task = task;
      r.node = node;
      r.peer = node;
      r.aux = speculative ? 1 : 0;
      trace(r);
    }
    return;
  }

  start_fetch(id, src, /*launch=*/true);
  a.nominal_end = a.fetch.end + config_.gamma;
}

void MapReduceSimulation::start_fetch(AttemptId id, cluster::NodeIndex src,
                                      bool launch) {
  Attempt& a = attempts_[id];
  const common::Seconds now = queue_.now();
  a.from_origin = (src == cluster::kOriginEndpoint);
  a.fetch_src = src;
  a.fetching = true;
  a.fetch = network_.request(src, a.node, cluster_.block_size_bytes, now);
  ++result_.transfers_started;
  if (config_.tracer != nullptr) {
    obs::TraceRecord r;
    if (launch) {
      r.type = obs::EventType::kAttemptStart;
      r.task = a.task;
      r.node = a.node;
      r.peer = src;
      r.aux = a.speculative ? 1 : 0;
      r.ticket = a.fetch.ticket;
      trace(r);
      r = obs::TraceRecord{};
    }
    r.type = obs::EventType::kTransferRequest;
    r.task = a.task;
    r.node = a.node;
    r.peer = src;
    r.ticket = a.fetch.ticket;
    r.v0 = a.fetch.start;
    r.v1 = a.fetch.end;
    trace(r);
  }
  if (launch && config_.metrics != nullptr) {
    config_.metrics->observe(hist_wait_, a.fetch.start - now);
  }
  if (!a.from_origin) {
    std::vector<AttemptId>& outgoing = node_state_[src].outgoing_fetches;
    a.outgoing_index = static_cast<std::uint32_t>(outgoing.size());
    outgoing.push_back(id);
  }
  a.event = queue_.schedule(a.fetch.end, [this, id] { on_fetch_done(id); });
}

void MapReduceSimulation::unregister_fetch(AttemptId id) {
  const Attempt& a = attempts_[id];
  if (a.from_origin) return;
  std::vector<AttemptId>& list = node_state_[a.fetch_src].outgoing_fetches;
  const std::uint32_t idx = a.outgoing_index;
  list[idx] = list.back();
  attempts_[list[idx]].outgoing_index = idx;
  list.pop_back();
}

void MapReduceSimulation::abort_outgoing_fetches(cluster::NodeIndex node) {
  const std::vector<AttemptId> outgoing = node_state_[node].outgoing_fetches;
  for (const AttemptId id : outgoing) {
    if (!attempts_[id].alive) continue;
    const cluster::NodeIndex dst = attempts_[id].node;
    kill_attempt(id, obs::TraceReason::kSourceTimeout);
    dispatch(dst);
  }
  network_.reset_uplink(node, queue_.now());
}

void MapReduceSimulation::on_fetch_done(AttemptId id) {
  Attempt& a = attempts_[id];
  if (!a.alive || !a.fetching) {
    throw std::logic_error("on_fetch_done: stale event");
  }
  result_.overhead.migration += a.fetch.duration();
  network_.on_transfer_complete(cluster_.block_size_bytes);
  if (config_.metrics != nullptr) {
    config_.metrics->observe(hist_transfer_, a.fetch.duration());
  }
  unregister_fetch(id);
  if (!corrupt_.empty() && !a.from_origin &&
      replica_corrupt(first_block_ + a.task, a.fetch_src)) {
    // The received bytes fail their checksum: trim the rotten source
    // copy and restart the read inside the same attempt — next live
    // holder first, origin as the last resort. The launch projection is
    // untouched, so the repeated fetch reads as overdue to speculation.
    handle_corrupt_replica(first_block_ + a.task, a.fetch_src, /*path=*/1);
    if (const std::optional<cluster::NodeIndex> src = fallback_source(a.task)) {
      start_fetch(id, *src, /*launch=*/false);
      return;
    }
    a.fetching = false;
    const cluster::NodeIndex dst = a.node;
    kill_attempt(id, obs::TraceReason::kChecksum);
    dispatch(dst);
    return;
  }
  a.fetching = false;
  a.exec_start = queue_.now();
  a.exec_end = queue_.now() + config_.gamma * slow_factor(a.node);
  a.event = queue_.schedule(a.exec_end,
                            [this, id] { on_attempt_complete(id); });
}

void MapReduceSimulation::on_attempt_complete(AttemptId id) {
  Attempt& a = attempts_[id];
  if (!a.alive || a.fetching) {
    throw std::logic_error("on_attempt_complete: stale event");
  }
  const TaskId task = a.task;
  const cluster::NodeIndex node = a.node;

  board_.mark_done(task);
  last_done_at_ = queue_.now();
  if (config_.record_completion_times) {
    result_.completion_times[task] = queue_.now();
    result_.winner_nodes[task] = node;
  }
  if (!task_first_start_.empty() && task_first_start_[task] >= 0.0) {
    // Realized completion time: winning finish minus the task's
    // first-ever attempt start, attributed to the winning node (an
    // approximation when a speculative duplicate wins, documented in
    // DESIGN.md §6d).
    const common::Seconds realized = queue_.now() - task_first_start_[task];
    if (config_.metrics != nullptr) {
      config_.metrics->observe(hist_task_time_, realized);
    }
    if (config_.calibration != nullptr) {
      config_.calibration->record_completion(node, realized);
    }
  }
  for (const cluster::NodeIndex home : board_.home_nodes(task)) {
    // A down home stops costing recovery once the job no longer needs it.
    if (--node_state_[home].undone_home == 0) close_recovery(home);
  }
  if (a.local) {
    ++result_.local_wins;
  } else if (a.from_origin) {
    ++result_.origin_wins;
  } else {
    ++result_.remote_wins;
  }
  if (a.speculative) ++result_.speculative_wins;
  {
    obs::TraceRecord r;
    r.type = obs::EventType::kAttemptFinish;
    r.task = task;
    r.node = node;
    r.aux = a.local ? 0 : a.from_origin ? 2 : 1;
    trace(r);
  }

  detach_attempt(id);

  // Kill the losing duplicates, if any (kill_attempt unregisters each
  // from the board, so iterate a copy).
  const std::vector<AttemptId> losers = board_.attempts_of(task);
  for (const AttemptId sibling : losers) {
    const cluster::NodeIndex sib_node = attempts_[sibling].node;
    kill_attempt(sibling, obs::TraceReason::kRedundant);
    dispatch(sib_node);
  }

  dispatch(node);
}

void MapReduceSimulation::detach_attempt(AttemptId id) {
  Attempt& a = attempts_[id];
  a.alive = false;
  a.event.cancel();

  // Remove from the running registry (swap-remove).
  const std::uint32_t ridx = a.running_index;
  running_[ridx] = running_.back();
  attempts_[running_[ridx]].running_index = ridx;
  running_.pop_back();

  // Remove from the hosting node.
  NodeState& ns = node_state_[a.node];
  const auto it = std::find(ns.attempts.begin(), ns.attempts.end(), id);
  if (it == ns.attempts.end()) {
    throw std::logic_error("detach_attempt: not registered on node");
  }
  *it = ns.attempts.back();
  ns.attempts.pop_back();

  board_.unregister_attempt(a.task, id);

  free_attempt(id);
}

void MapReduceSimulation::kill_attempt(AttemptId id,
                                       obs::TraceReason reason) {
  const bool failed = reason != obs::TraceReason::kRedundant;
  Attempt& a = attempts_[id];
  if (!a.alive) throw std::logic_error("kill_attempt: already dead");
  const TaskId task = a.task;
  const common::Seconds now = queue_.now();

  if (a.fetching) {
    result_.overhead.migration += std::max(0.0, now - a.fetch.start);
    ++result_.transfers_aborted;
    switch (reason) {
      case obs::TraceReason::kNodeDown:
        ++result_.aborts_dst_down;
        break;
      case obs::TraceReason::kSourceTimeout:
        ++result_.aborts_src_timeout;
        break;
      case obs::TraceReason::kRedundant:
        ++result_.aborts_redundant;
        break;
      default:
        // A checksum kill never aborts a live transfer: the fetch had
        // already completed when the corrupt bytes were detected.
        break;
    }
    const common::Seconds reclaimed = network_.abort(a.fetch, now);
    {
      obs::TraceRecord r;
      r.type = obs::EventType::kTransferAbort;
      r.reason = reason;
      r.task = task;
      r.peer = a.fetch_src;
      r.ticket = a.fetch.ticket;
      r.v0 = reclaimed;
      trace(r);
    }
    unregister_fetch(id);
  } else if (failed && a.exec_start >= 0.0) {
    result_.overhead.rework += now - a.exec_start;
  }

  if (failed) {
    ++result_.attempts_failed;
  } else {
    ++result_.attempts_killed;
  }
  {
    obs::TraceRecord r;
    r.type = obs::EventType::kAttemptKill;
    r.reason = reason;
    r.task = task;
    r.node = a.node;
    trace(r);
  }

  if (reason == obs::TraceReason::kRedundant && !a.local) {
    // Network bytes this losing duplicate burned: the whole block when
    // its fetch had completed, the transferred prefix (pro-rated by
    // elapsed transfer time) when it was still on the wire.
    const double block = static_cast<double>(cluster_.block_size_bytes);
    double waste = 0.0;
    if (!a.fetching) {
      waste = block;
    } else if (a.fetch.end > a.fetch.start) {
      const double frac =
          (now - a.fetch.start) / (a.fetch.end - a.fetch.start);
      waste = block * std::clamp(frac, 0.0, 1.0);
    }
    const std::uint64_t bytes = static_cast<std::uint64_t>(waste);
    result_.redundant_waste_bytes += bytes;
    // The waste event appears only under non-baseline schedulers so
    // default-scheduler traces stay byte-identical to before.
    if (bytes > 0 && scheduler_->kind() != SchedulerKind::kBaseline) {
      obs::TraceRecord r;
      r.type = obs::EventType::kRedundantWaste;
      r.reason = reason;
      r.task = task;
      r.node = a.node;
      r.v0 = waste;
      trace(r);
    }
  }

  detach_attempt(id);

  if (failed && board_.attempt_count(task) == 0 &&
      board_.status(task) == TaskStatus::kRunning) {
    board_.mark_pending(task);
    // The attempt may have been the last carrier of a block with zero
    // live replicas; with no origin fallback the task is now lost.
    maybe_mark_lost(task);
    wake_for_task(task);
  }
}

// ---------------------------------------------------------------------
// Interruption listener
// ---------------------------------------------------------------------

void MapReduceSimulation::on_node_down(cluster::NodeIndex node) {
  NodeState& ns = node_state_[node];
  ns.down_at = queue_.now();
  if (ns.undone_home > 0) ns.recovery_open = queue_.now();
  {
    obs::TraceRecord r;
    r.type = obs::EventType::kNodeDown;
    r.node = node;
    trace(r);
  }

  if (collector_ && !message_mode_) {
    // Message mode never gets these oracle notifications — the collector
    // learns about the outage from the silence that follows, and the
    // heartbeat round sweeps believed-dead nodes into declarations.
    collector_->notify_down(node, queue_.now());
    if (!namenode_.is_dead(node)) {
      // Arm the dead-check alarm: fires once the heartbeat protocol has
      // both detected the outage and waited out the dead timeout (the
      // epsilon shields the >= comparison from float round-off).
      dead_check_[node].cancel();
      dead_check_[node] = queue_.schedule(
          queue_.now() + collector_->detection_latency() +
              config_.churn.dead_timeout + 1e-9,
          [this, node] { maybe_declare_dead(node); });
    }
  }

  // Attempts running here fail.
  const std::vector<AttemptId> local = ns.attempts;
  for (const AttemptId id : local) {
    if (attempts_[id].alive) kill_attempt(id, obs::TraceReason::kNodeDown);
  }

  // Recovery transfers touching the node abort and go through the
  // pipeline's retry/backoff.
  if (rereplicator_) rereplicator_->on_node_down(node);
  if (migration_) migration_->on_node_down(node);

  // Transfers sourced here stall; they resume (shifted) when the node
  // returns, or abort when the outage outlives the client timeout.
  for (const AttemptId id : ns.outgoing_fetches) {
    Attempt& a = attempts_[id];
    if (!a.alive || !a.fetching) continue;
    a.transfer_stalled = true;
    a.event.cancel();
    obs::TraceRecord r;
    r.type = obs::EventType::kTransferStall;
    r.task = a.task;
    r.peer = node;
    r.ticket = a.fetch.ticket;
    trace(r);
  }
  if (!ns.outgoing_fetches.empty()) {
    ns.stall_timeout_event = queue_.schedule(
        queue_.now() + config_.transfer_stall_timeout,
        [this, node] { on_stall_timeout(node); });
    // Once the stall makes those transfers overdue (one gamma of slip),
    // idle nodes should get a chance to speculate rescues; re-check
    // periodically while the outage lasts (the rescue economics improve
    // as it drags on).
    if (scheduler_->speculation_enabled()) {
      queue_.schedule(queue_.now() + config_.gamma + 1e-9,
                      [this, node] { on_stall_wake(node); });
    }
  }
}

void MapReduceSimulation::on_stall_wake(cluster::NodeIndex node) {
  if (is_up(node)) return;  // outage over; resumes handled the rest
  const NodeState& ns = node_state_[node];
  std::size_t stalled = 0;
  for (const AttemptId id : ns.outgoing_fetches) {
    const Attempt& a = attempts_[id];
    if (a.alive && a.transfer_stalled) ++stalled;
  }
  if (stalled == 0) return;
  for (std::size_t i = 0; i < stalled; ++i) {
    if (!wake_one_idle()) break;
  }
  queue_.schedule(queue_.now() + config_.gamma,
                  [this, node] { on_stall_wake(node); });
}

void MapReduceSimulation::on_stall_timeout(cluster::NodeIndex node) {
  if (is_up(node)) return;  // stale event
  // While the source is down every fetch it serves is stalled.
  abort_outgoing_fetches(node);
}

void MapReduceSimulation::on_node_up(cluster::NodeIndex node) {
  const bool was_declared = collector_ && namenode_.is_dead(node);
  // In message mode the NameNode cannot know the node returned until a
  // beat arrives: the revive happens in the next heartbeat round, not
  // here.
  const bool resurrected = was_declared && !message_mode_;
  NodeState& ns = node_state_[node];
  close_recovery(node);
  ns.stall_timeout_event.cancel();
  const common::Seconds outage =
      ns.down_at >= 0.0 ? queue_.now() - ns.down_at : 0.0;
  ns.down_at = -1.0;
  {
    obs::TraceRecord r;
    r.type = obs::EventType::kNodeUp;
    r.node = node;
    trace(r);
  }
  if (config_.metrics != nullptr && outage > 0.0) {
    config_.metrics->observe(hist_outage_, outage);
  }

  if (collector_ && !message_mode_) {
    collector_->notify_up(node, queue_.now());
    dead_check_[node].cancel();
    if (resurrected) revive_declared_dead(node);
  }

  // A declaration made while the node was down already aborted its
  // fetches and reset its uplink. Otherwise (never declared, or declared
  // while still serving) transfers stalled on it resume.
  const bool fetches_aborted =
      was_declared && (false_declared_.empty() || !false_declared_[node]);
  if (outage > 0.0 && !fetches_aborted) {
    // Resume stalled transfers, shifted by the outage; the uplink's
    // admission clock shifts with them.
    network_.shift_uplink(node, outage, queue_.now());
    for (const AttemptId id : ns.outgoing_fetches) {
      Attempt& a = attempts_[id];
      if (!a.alive || !a.fetching || !a.transfer_stalled) continue;
      a.transfer_stalled = false;
      a.fetch.start += outage;
      a.fetch.end += outage;
      a.event =
          queue_.schedule(a.fetch.end, [this, id] { on_fetch_done(id); });
      obs::TraceRecord r;
      r.type = obs::EventType::kTransferResume;
      r.task = a.task;
      r.peer = node;
      r.ticket = a.fetch.ticket;
      r.v0 = a.fetch.end;
      trace(r);
    }
  } else {
    network_.reset_uplink(node, queue_.now());
  }

  // A returning node may unblock a recovery source or destination.
  if (rereplicator_) rereplicator_->on_node_up(node);
  if (migration_) migration_->on_node_up(node);

  const std::size_t revived =
      board_.revive_stalled_for(node, queue_.now());
  dispatch(node);
  for (std::size_t i = 0; i < revived; ++i) wake_one_idle();
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

std::optional<cluster::NodeIndex> MapReduceSimulation::usable_source(
    TaskId task) const {
  std::optional<cluster::NodeIndex> best;
  common::Seconds best_free = 0.0;
  for (const cluster::NodeIndex home : board_.home_nodes(task)) {
    if (!is_up(home)) continue;
    const common::Seconds free_at = network_.uplink_available_at(home);
    const common::Seconds wait = free_at - queue_.now();
    // A source backed up by more than one block's transfer is not worth
    // queueing on (the fetch would sit as a zombie attempt); the task
    // parks instead and is resolved by its home node or the origin.
    if (wait > common::transfer_time(cluster_.block_size_bytes,
                                     cluster_.nodes[home].uplink_bps)) {
      continue;
    }
    if (!best || free_at < best_free) {
      best = home;
      best_free = free_at;
    }
  }
  return best;
}

std::optional<cluster::NodeIndex> MapReduceSimulation::fallback_source(
    TaskId task) const {
  if (const std::optional<cluster::NodeIndex> src = usable_source(task)) {
    return src;
  }
  if (config_.allow_origin_fetch) return cluster::kOriginEndpoint;
  return std::nullopt;
}

double MapReduceSimulation::estimated_cost_on(cluster::NodeIndex node,
                                              TaskId task) const {
  if (board_.is_local_to(task, node) && is_up(node)) {
    return config_.gamma * slow_factor(node);
  }
  const std::optional<cluster::NodeIndex> src = fallback_source(task);
  if (!src) return -1.0;  // cannot run it here at all
  const double uplink = *src == cluster::kOriginEndpoint
                            ? network_.origin_uplink_bps()
                            : cluster_.nodes[*src].uplink_bps;
  const common::Seconds queue_wait =
      std::max(0.0, network_.uplink_available_at(*src) - queue_.now());
  const double rate = std::min(uplink, cluster_.nodes[node].downlink_bps);
  return queue_wait +
         common::transfer_time(cluster_.block_size_bytes, rate) +
         config_.gamma * slow_factor(node);
}

common::Seconds MapReduceSimulation::projected_fetch_end(
    const Attempt& a) const {
  common::Seconds end = a.fetch.end;
  if (a.transfer_stalled) {
    // The resume will shift the end by the outage length accumulated so
    // far; project that shift now so the attempt reads as overdue.
    const common::Seconds down_at = node_state_[a.fetch_src].down_at;
    if (down_at >= 0.0) end += queue_.now() - down_at;
  }
  return end;
}

double MapReduceSimulation::remaining_time(const Attempt& a) const {
  if (a.fetching) {
    if (a.transfer_stalled) {
      // The resume time is unknown; project the stall observed so far as
      // the estimate of what is still to come (a renewal-style guess),
      // so rescue economics improve the longer the outage persists.
      const common::Seconds down_at = node_state_[a.fetch_src].down_at;
      const common::Seconds stall =
          down_at >= 0.0 ? queue_.now() - down_at : 0.0;
      return (projected_fetch_end(a) - queue_.now()) + config_.gamma +
             stall;
    }
    return (a.fetch.end - queue_.now()) + config_.gamma;
  }
  return std::max(0.0, a.exec_end - queue_.now());
}

// ---------------------------------------------------------------------
// SchedulerHost view
// ---------------------------------------------------------------------

common::Seconds MapReduceSimulation::now() const { return queue_.now(); }

std::size_t MapReduceSimulation::running_count() const {
  return running_.size();
}

AttemptView MapReduceSimulation::running_attempt(std::size_t i) const {
  const Attempt& a = attempts_[running_[i]];
  AttemptView v;
  v.task = a.task;
  v.node = a.node;
  v.alive = a.alive;
  v.fetching = a.fetching;
  v.projected_finish =
      a.fetching ? projected_fetch_end(a) + config_.gamma : a.exec_end;
  v.nominal_end = a.nominal_end;
  v.remaining = remaining_time(a);
  v.first_start =
      task_first_start_.empty() ? -1.0 : task_first_start_[a.task];
  return v;
}

bool MapReduceSimulation::task_running(std::uint32_t task) const {
  return board_.status(task) == TaskStatus::kRunning;
}

std::size_t MapReduceSimulation::attempt_count(std::uint32_t task) const {
  return board_.attempt_count(task);
}

bool MapReduceSimulation::is_local_to(std::uint32_t task,
                                      cluster::NodeIndex node) const {
  return board_.is_local_to(task, node);
}

double MapReduceSimulation::cluster_calibration_ratio() const {
  return config_.calibration != nullptr
             ? config_.calibration->cluster_ratio()
             : 0.0;
}

}  // namespace adapt::sim
