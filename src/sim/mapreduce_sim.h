// Map-phase discrete-event simulation of a Hadoop-like runtime on a
// volatile cluster ("a discrete event simulator ... with mechanism
// analogous to that of Hadoop", paper Section V-C).
//
// Semantics implemented:
//  * one map task per block; a TaskTracker runs one attempt at a time;
//  * locality-first scheduling, then remote fetch from a live replica
//    over the bounded-bandwidth network, then origin re-fetch when every
//    replica is offline, then speculative duplicates of slow attempts;
//  * interruptions kill running attempts and in-flight transfers; the
//    host's blocks survive on disk and its interrupted task is re-run
//    locally if still pending when the host returns;
//  * first finished attempt wins; duplicates are killed.
//
// Accounting matches Figure 5's decomposition: rework (lost execution),
// recovery (node downtime during the job), migration (time blocks spent
// on the wire), misc (residual: duplicate execution, queue gaps, idle
// tail).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/heartbeat.h"
#include "cluster/network.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "hdfs/namenode.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/injector.h"
#include "sim/migration.h"
#include "sim/overhead.h"
#include "sim/rereplication.h"
#include "sim/scheduler.h"
#include "sim/scheduler_policy.h"
#include "sim/sim_config.h"

namespace adapt::sim {

struct JobResult {
  common::Seconds elapsed = 0.0;
  double locality = 0.0;  // winning attempts that ran on a replica holder
  OverheadBreakdown overhead;

  std::uint64_t tasks = 0;
  std::uint64_t local_wins = 0;
  std::uint64_t remote_wins = 0;
  std::uint64_t origin_wins = 0;
  std::uint64_t attempts_started = 0;
  std::uint64_t attempts_failed = 0;   // killed by interruptions
  std::uint64_t attempts_killed = 0;   // redundant duplicates
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_aborted = 0;
  std::uint64_t aborts_dst_down = 0;      // fetching node died
  std::uint64_t aborts_src_timeout = 0;   // source outage > stall timeout
  std::uint64_t aborts_redundant = 0;     // another attempt won the task
  std::uint64_t node_transitions = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t network_bytes = 0;
  // -- scheduler policy (duplicate-attempt accounting) ---------------
  std::uint64_t speculative_launches = 0;  // duplicates launched
  std::uint64_t speculative_wins = 0;      // duplicates that won
  std::uint64_t redundant_launches = 0;    // kRedundant up-front copies
  // Network bytes spent on fetches for attempts later cancelled because
  // a sibling finished first (pro-rated for in-flight fetches).
  std::uint64_t redundant_waste_bytes = 0;
  // Only filled when SimJobConfig::record_completion_times is set:
  // completion_times[t] and winning node per task.
  std::vector<common::Seconds> completion_times;
  std::vector<cluster::NodeIndex> winner_nodes;

  // -- churn & recovery (all zero/false on churn-free runs) ----------
  bool failed = false;
  std::string failure;  // "data_loss" | "no_live_nodes" when failed
  std::uint64_t nodes_departed = 0;
  std::uint64_t nodes_dead = 0;         // dead declarations
  std::uint64_t nodes_resurrected = 0;  // declared dead, then returned
  std::uint64_t replicas_dropped = 0;   // replicas written off as dead
  std::uint64_t blocks_lost = 0;        // blocks that hit 0 live replicas
  std::uint64_t tasks_lost = 0;         // tasks failed by data loss
  std::uint64_t rereplications = 0;     // replicas restored
  // Revive-as-block-report accounting (NameNode::revive_node): disk
  // copies re-registered after a false dead declaration, and excess
  // replicas reclaimed when re-replication had already refilled the
  // block.
  std::uint64_t replicas_restored = 0;
  std::uint64_t over_replicated_trimmed = 0;
  std::uint64_t duplicate_replica_inserts = 0;
  std::uint64_t rereplication_retries = 0;
  std::uint64_t rereplication_giveups = 0;
  std::uint64_t rereplication_bytes = 0;
  std::uint64_t max_under_replicated = 0;
  // Structured data-loss report: one entry per lost block, with the map
  // task it failed.
  struct LostBlock {
    hdfs::BlockId block = 0;
    std::uint32_t task = 0;
  };
  std::vector<LostBlock> lost_blocks;

  // -- online rebalancing (all zero with the loop off) ---------------
  std::uint64_t rebalance_triggers = 0;    // drift-tripped passes
  std::uint64_t migrations_submitted = 0;
  std::uint64_t migrations_committed = 0;
  std::uint64_t migration_retries = 0;
  std::uint64_t migration_giveups = 0;
  std::uint64_t migration_redraws = 0;
  std::uint64_t migration_bytes = 0;

  // -- gray failures (all zero with the gray knobs off) --------------
  std::uint64_t heartbeats_lost = 0;        // beats dropped by loss/partition
  std::uint64_t false_dead_declarations = 0;  // declared dead while up
  std::uint64_t replicas_corrupted = 0;     // bitrot injections landed
  std::uint64_t corrupt_reads = 0;          // checksum catches (all paths)
  std::uint64_t blocks_scanned = 0;         // scanner verifications
  std::uint64_t safe_mode_entries = 0;
  std::uint64_t safe_mode_deferrals = 0;    // write-offs held back
  std::uint64_t safe_mode_rescues = 0;      // deferred nodes that beat again
  // Replicas still silently corrupt when the job ended (ground truth the
  // chaos harness checks loss reports against).
  struct CorruptReplica {
    hdfs::BlockId block = 0;
    cluster::NodeIndex node = 0;
  };
  std::vector<CorruptReplica> corrupt_remaining;
};

// Simulates the map phase of `file` (already placed in `namenode`) on
// `cluster`. One instance runs one job; construct fresh per run.
// Attempt *choice* (which task to duplicate, how many duplicates) is
// delegated to the SchedulerPolicy named by config.scheduler; the
// simulation implements SchedulerHost to expose the read-only view the
// policy decides from.
class MapReduceSimulation : public InterruptionInjector::Listener,
                            private SchedulerHost {
 public:
  // With churn enabled, dead declarations write off replicas in
  // `namenode` and the recovery pipelines restore and move them there;
  // a churn-free run only reads it.
  MapReduceSimulation(const cluster::Cluster& cluster,
                      hdfs::NameNode& namenode, hdfs::FileId file,
                      SimJobConfig config);

  JobResult run();

  // InterruptionInjector::Listener
  void on_node_down(cluster::NodeIndex node) override;
  void on_node_up(cluster::NodeIndex node) override;

 private:
  // A source node's outage outlived the DFS client timeout: abort the
  // transfers stalled on it.
  void on_stall_timeout(cluster::NodeIndex node);
  // Periodic while a source is down: offer idle nodes the chance to
  // speculate rescues of the transfers stalled on it.
  void on_stall_wake(cluster::NodeIndex node);

  // -- churn & recovery ---------------------------------------------
  void init_churn();
  // Rebuilds the re-replication destination policy from the collector's
  // current estimates (or uniform random without a factory).
  void refresh_policy();
  // Dead-check alarm: fires detection latency + dead_timeout after a
  // down transition; declares the node dead if it is still silent.
  void maybe_declare_dead(cluster::NodeIndex node);
  // Write off the node's replicas, re-home its tasks, and feed the
  // under-replicated blocks to the recovery pipeline.
  void declare_dead(cluster::NodeIndex node);
  // A task whose block has zero live replicas, no origin fallback and no
  // attempt still running is unrecoverable: record the data loss.
  void maybe_mark_lost(TaskId task);
  // Map task of `block` (nullopt for blocks of other files).
  std::optional<TaskId> task_of(hdfs::BlockId block) const;

  // -- replica membership ----------------------------------------------
  // Every change to the set of nodes holding a task's block goes through
  // these, so board homes, recovery charging, loss verdicts and repair
  // stay in step. Homes are tracked for undone tasks only.
  //
  // A copy of `block` became readable on `node`: the task is local there.
  // Returns the task while it is still undone.
  std::optional<TaskId> home_replica(hdfs::BlockId block,
                                     cluster::NodeIndex node);
  // ReReplicator / MigrationDriver landed fresh bytes of `block` on
  // `node`: home them, trace the placement and put the task in reach.
  void on_replica_landed(hdfs::BlockId block, cluster::NodeIndex node);
  // `node` no longer holds `block`: the task is no longer local there.
  void unhome_replica(hdfs::BlockId block, cluster::NodeIndex node);
  // The metadata just dropped a replica of `block`: report the loss if
  // it was the last one, else queue the repair.
  void after_replica_drop(hdfs::BlockId block);
  // Stop charging `node`'s downtime to recovery.
  void close_recovery(cluster::NodeIndex node);

  // -- gray failures ---------------------------------------------------
  // Arms the gray-failure machinery (message-level heartbeats, timed
  // partitions, stragglers, bitrot, scanner, safe mode) from
  // config_.churn; called by init_churn when any gray knob is set.
  void init_gray();
  // Message-level heartbeat round: every up, unpartitioned node delivers
  // a beat unless the per-beat loss draw eats it; silence is what the
  // collector detects. Round 0 doubles as registration — nodes silent at
  // t=0 are armed for transition-style detection so a never-beating node
  // is still eventually declared.
  void on_heartbeat_round();
  // Sweep believed-dead nodes into declarations (through the safe-mode
  // gate) — the message-mode replacement for the per-node dead-check
  // alarm.
  void sweep_believed_dead();
  // Declaration gate: defer the write-off when the believed-dead
  // fraction within one detection window trips safe mode.
  void note_believed_dead(cluster::NodeIndex node);
  void on_safe_mode_expire();
  // A deferred node beat again before the hold expired.
  void rescue_deferred(cluster::NodeIndex node);
  // Undo a dead declaration: re-register surviving disk copies, trim
  // over-replication, re-home restored tasks. Returns {restored,
  // trimmed} for the kNodeRevived trace.
  std::pair<std::uint32_t, std::uint32_t> revive_declared_dead(
      cluster::NodeIndex node);
  void start_partition(std::size_t index);
  void heal_partition(std::size_t index);
  void start_straggler(std::size_t index);
  void end_straggler(std::size_t index);
  // Silently corrupt one replica of `block` (node_hint < 0 = random
  // live holder); no-op when no eligible holder exists.
  void inject_corruption(hdfs::BlockId block, std::int64_t node_hint);
  void on_bitrot();   // Poisson arrival: corrupt a random replica
  void on_scan();     // budgeted background block scanner sweep
  bool replica_corrupt(hdfs::BlockId block, cluster::NodeIndex node) const;
  void clear_corrupt(hdfs::BlockId block, cluster::NodeIndex node);
  // Checksum caught a corrupt replica: trim it from the metadata, re-home
  // the task and feed the block to recovery (a copy already written off
  // is only counted). path: 0 local read, 1 remote fetch, 2 scanner.
  void handle_corrupt_replica(hdfs::BlockId block, cluster::NodeIndex node,
                              std::uint32_t path);
  double slow_factor(cluster::NodeIndex node) const {
    return slow_factor_.empty() ? 1.0 : slow_factor_[node];
  }
  bool is_partitioned(cluster::NodeIndex node) const {
    return !partition_count_.empty() && partition_count_[node] > 0;
  }

  // -- online rebalancing --------------------------------------------
  // Drift alarms fired this sample: re-estimate, refresh the policies,
  // and submit migrations for replicas whose holder's E[T] quote
  // degraded past the hysteresis threshold (cooldown-gated).
  void maybe_rebalance(std::uint32_t alarm_count);
  // MigrationDriver callback: a move committed — the replica left
  // `from` and is now readable (and local) at `to`.
  void on_migration_committed(hdfs::BlockId block, cluster::NodeIndex from,
                              cluster::NodeIndex to);
  // Whole pool permanently departed: periodic events must stop so the
  // queue drains and run() can declare no_live_nodes.
  bool pool_departed() const {
    return injector_.departures() >= node_state_.size();
  }

  // -- time-series sampling & calibration ----------------------------
  // Fires every config_.sample_dt simulated seconds: snapshots the
  // sampler gauges into the metric time-series and steps the
  // calibration CUSUM drift detector.
  void on_sample();

 private:
  using AttemptId = std::uint32_t;
  static constexpr AttemptId kNoAttempt = ~AttemptId{0};

  struct Attempt {
    TaskId task = 0;
    cluster::NodeIndex node = 0;
    bool alive = false;
    bool local = false;
    bool from_origin = false;
    bool speculative = false;  // duplicate of an already-running task
    bool fetching = false;
    bool transfer_stalled = false;  // source down; end shifts on resume
    cluster::TransferGrant fetch;
    common::Seconds exec_start = -1.0;
    // Actual scheduled completion of the execution phase (includes a
    // straggling host's slowdown); equals exec_start + gamma when the
    // host is healthy.
    common::Seconds exec_end = 0.0;
    common::Seconds nominal_end = 0.0;  // projected finish at launch
    EventQueue::Handle event;        // pending fetch-done or completion
    std::uint32_t running_index = 0; // position in running registry
    std::uint32_t outgoing_index = 0;
    cluster::NodeIndex fetch_src = 0;
  };

  struct NodeState {
    common::Seconds down_at = -1.0;
    // Downtime is charged to "recovery" only while the node still has
    // undone home tasks (that is the downtime that can delay the job);
    // >= 0 marks an open charging segment.
    common::Seconds recovery_open = -1.0;
    EventQueue::Handle stall_timeout_event;
    std::uint32_t undone_home = 0;  // home tasks not yet completed
    std::vector<AttemptId> attempts;           // attempts running here
    std::vector<AttemptId> outgoing_fetches;   // transfers sourced here
    bool idle_flagged = false;
  };

  // -- scheduler host view (read-only queries for the policy) --------
  common::Seconds now() const override;
  std::size_t running_count() const override;
  AttemptView running_attempt(std::size_t i) const override;
  bool task_running(std::uint32_t task) const override;
  std::size_t attempt_count(std::uint32_t task) const override;
  bool is_local_to(std::uint32_t task,
                   cluster::NodeIndex node) const override;
  double cluster_calibration_ratio() const override;

  // -- dispatch ------------------------------------------------------
  void dispatch(cluster::NodeIndex node);
  bool assign_one(cluster::NodeIndex node);
  // Asks the policy for a task worth duplicating on the idle node and
  // launches the duplicate if a data source is reachable.
  bool try_speculate(cluster::NodeIndex node);
  // kRedundant: launch the policy's up-front duplicates of `task` right
  // after its primary attempt started on `primary`.
  void launch_redundant(TaskId task, cluster::NodeIndex primary);
  void mark_idle(cluster::NodeIndex node);
  bool wake_one_idle();
  void wake_for_task(TaskId task);
  // Schedule a wake-up for when the oldest stalled task ripens for an
  // origin re-fetch.
  void arm_ripe_wake();
  void on_ripe_wake();

  // -- attempt lifecycle ----------------------------------------------
  void start_attempt(TaskId task, cluster::NodeIndex node,
                     cluster::NodeIndex src, bool speculative);
  // Request the block from `src` for attempt `id` and arm the fetch's
  // completion; `launch` also traces the attempt start and observes the
  // admission wait (the attempt's first fetch).
  void start_fetch(AttemptId id, cluster::NodeIndex src, bool launch);
  // Drop a remote fetch from its source's outgoing list.
  void unregister_fetch(AttemptId id);
  // Kill every fetch sourced at `node`, re-dispatch each destination and
  // reset the node's uplink.
  void abort_outgoing_fetches(cluster::NodeIndex node);
  void on_fetch_done(AttemptId id);
  void on_attempt_complete(AttemptId id);
  // Kill paths; kRedundant = another attempt won, the rest are failures.
  void kill_attempt(AttemptId id, obs::TraceReason reason);
  void detach_attempt(AttemptId id);

  // -- helpers ---------------------------------------------------------
  // Liveness is the injector's; the simulation keeps no copy.
  bool is_up(cluster::NodeIndex node) const {
    return injector_.up().test(node);
  }
  // A node has one map slot: it can take work when it is up and runs no
  // attempt.
  bool can_take_work(cluster::NodeIndex node) const {
    return is_up(node) && node_state_[node].attempts.empty();
  }
  // Best replica holder that is up *and* whose uplink queue is short
  // enough to be worth joining; nullopt when none qualifies.
  std::optional<cluster::NodeIndex> usable_source(TaskId task) const;
  // Read source for a non-local attempt: a usable replica holder, else
  // the origin when allowed, else none.
  std::optional<cluster::NodeIndex> fallback_source(TaskId task) const;
  // Also the SchedulerHost query of the same name.
  double estimated_cost_on(cluster::NodeIndex node,
                           TaskId task) const override;
  // Fetch end including the not-yet-applied shift of an ongoing stall.
  common::Seconds projected_fetch_end(const Attempt& a) const;
  double remaining_time(const Attempt& a) const;
  AttemptId alloc_attempt();
  void free_attempt(AttemptId id);

  const cluster::Cluster& cluster_;
  hdfs::NameNode& namenode_;
  hdfs::FileId file_;
  SimJobConfig config_;

  EventQueue queue_;
  cluster::Network network_;
  common::Rng rng_;
  TaskBoard board_;
  InterruptionInjector injector_;

  // Attempt choice policy (built from config_.scheduler);
  // per-task attempt membership lives on the TaskBoard.
  SchedulerPtr scheduler_;

  std::vector<NodeState> node_state_;
  std::vector<Attempt> attempts_;
  std::vector<AttemptId> attempt_free_list_;
  std::vector<AttemptId> running_;  // alive attempt registry
  std::vector<cluster::NodeIndex> idle_stack_;

  JobResult result_;
  common::Seconds last_done_at_ = 0.0;
  common::Seconds origin_delay_ = 0.0;
  common::Seconds ripe_wake_at_ = -1.0;  // armed wake-up time, < 0 = none

  // -- churn & recovery (engaged only when config_.churn.enabled) ----
  std::optional<cluster::HeartbeatCollector> collector_;
  std::optional<ReReplicator> rereplicator_;
  std::optional<MigrationDriver> migration_;
  // The policy refresh_policy last built, shared with the drivers; the
  // rebalance pass draws its migration targets from it.
  placement::PolicyPtr rebalance_policy_;
  common::Rng rebalance_rng_;
  common::Seconds last_rebalance_at_ = -1.0;  // cooldown gate, < 0 = never
  std::vector<EventQueue::Handle> dead_check_;  // armed per down node
  std::vector<bool> task_lost_;
  std::size_t tasks_lost_ = 0;
  hdfs::BlockId first_block_ = 0;  // task t <-> block first_block_ + t

  // -- gray failures (engaged only when churn.gray_enabled()) ---------
  bool gray_ = false;          // any gray knob set
  bool message_mode_ = false;  // detection driven by observe_heartbeat
  common::Rng hb_rng_;         // per-beat loss draws (own fork)
  common::Rng corrupt_rng_;    // bitrot arrivals + victim picks (own fork)
  // Per-node count of partitions currently cutting the node off from the
  // NameNode (partitions may overlap).
  std::vector<int> partition_count_;
  // Resolved node sets per configured partition (domain -> members).
  std::vector<std::vector<cluster::NodeIndex>> partition_nodes_;
  // Per-node service-time multiplier; 1.0 = healthy, > 1 = degraded.
  std::vector<double> slow_factor_;
  // Ground truth of silently corrupted replicas, keyed (block, node).
  std::vector<std::pair<hdfs::BlockId, cluster::NodeIndex>> corrupt_;
  // Declared dead while actually up (the trace-worthy false positives).
  std::vector<bool> false_declared_;
  // First heartbeat round doubles as registration; done once.
  bool hb_registered_ = false;
  // Safe mode: write-offs deferred while a mass-death signal is in flight.
  std::vector<bool> deferred_dead_;
  std::size_t deferred_count_ = 0;
  bool safe_mode_ = false;
  EventQueue::Handle safe_mode_event_;
  // Believed-dead declaration times inside the rolling detection window.
  std::vector<common::Seconds> recent_dead_times_;
  std::size_t scan_cursor_ = 0;  // round-robin scanner position

  // Stamps the record with the current sim time and hands it to the
  // tracer; a no-op (one branch) when tracing is off.
  void trace(obs::TraceRecord r) {
    if (config_.tracer != nullptr) {
      r.t = queue_.now();
      config_.tracer->record(r);
    }
  }

  // Span hooks: one predictable branch each when profiling is off.
  void span_begin(const char* name) {
    if (config_.spans != nullptr) config_.spans->begin(name, queue_.now());
  }
  void span_end() {
    if (config_.spans != nullptr) config_.spans->end(queue_.now());
  }

  // Pre-registered histogram ids, valid only when config_.metrics is set.
  obs::MetricsRegistry::Id hist_transfer_ = 0;
  obs::MetricsRegistry::Id hist_outage_ = 0;
  obs::MetricsRegistry::Id hist_wait_ = 0;
  obs::MetricsRegistry::Id hist_task_time_ = 0;
  // Sampler series ids, valid only when sampling is armed.
  obs::MetricsRegistry::Id gauge_nodes_up_ = 0;
  obs::MetricsRegistry::Id gauge_tasks_done_ = 0;
  obs::MetricsRegistry::Id gauge_attempts_running_ = 0;
  obs::MetricsRegistry::Id gauge_under_replicated_ = 0;
  obs::MetricsRegistry::Id gauge_cal_ratio_ = 0;
  obs::MetricsRegistry::Id ctr_drift_alarms_ = 0;

  // First-ever attempt start per task (realized completion time is
  // "done minus first start", attributed to the winning node); sized
  // only when metrics or calibration need it.
  std::vector<common::Seconds> task_first_start_;
};

// Convenience: board construction input from HDFS metadata.
std::vector<std::vector<cluster::NodeIndex>> replica_map(
    const hdfs::NameNode& namenode, hdfs::FileId file);

}  // namespace adapt::sim
