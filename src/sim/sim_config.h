// Simulation job configuration and its validation.
//
// SimJobConfig is a plain aggregate so experiment code can fill fields
// directly; validate() centralizes every range check the simulation
// relies on and throws a structured ConfigError naming the offending
// field.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "availability/interruption_model.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "placement/policy.h"
#include "sim/migration.h"
#include "sim/rereplication.h"

namespace adapt::sim {

// A configuration value out of range. Derives std::invalid_argument so
// existing catch sites keep working; field() names the bad field for
// structured reporting (CLI flag mapping, test assertions).
class ConfigError : public std::invalid_argument {
 public:
  ConfigError(std::string field, const std::string& message)
      : std::invalid_argument("config." + field + ": " + message),
        field_(std::move(field)) {}

  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

// Which SchedulerPolicy drives attempt launch / speculation decisions
// (see sim/scheduler_policy.h — this enum lives here so SchedulerConfig
// can be validated alongside the rest of the job config).
enum class SchedulerKind {
  kBaseline,    // Hadoop-style locality + global slack speculation
  kCalibrated,  // Eq. 5 quote x margin x drift ratio speculation
  kRedundant,   // launch each task on k nodes, cancel on first finish
};

std::string to_string(SchedulerKind kind);

// Scheduling knobs, grouped. The policies' thresholds (speculation
// slack, the one-gamma overdue slip, the attempt cap, the calibrated
// margin, k) are constants in sim/scheduler_policy.cpp.
struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::kBaseline;
  // Reactive speculation (baseline and calibrated): idle nodes duplicate
  // overdue laggards.
  bool speculation = true;
  // kCalibrated: per-node placement-time E[T_i] quotes (Eq. 5), indexed
  // by node. Filled by run_experiment and run_job_stream from the
  // Performance Predictor; +inf marks an unusable node. Empty = fall
  // back to the baseline overdue rule.
  std::vector<double> node_quotes;

  // Throws ConfigError naming "scheduler.<field>".
  void validate() const;
};

struct SimJobConfig {
  double gamma = 12.0;  // failure-free map task time, seconds (Table 4)
  bool allow_origin_fetch = true;   // last resort when all replicas down
  // A task whose replicas are all offline is re-fetched from the origin
  // only after stalling this long (waiting out a short outage is cheaper
  // than a broadband transfer). Negative = auto: one block's transfer
  // time from the origin.
  common::Seconds origin_fetch_delay = -1.0;
  std::uint64_t seed = 1;
  common::Seconds replay_horizon = 0.0;  // 0 = derive from trace
  // Per-node replay offsets (see InterruptionInjector::Config); lets the
  // caller filter placement to nodes up at t = 0. Empty = drawn at
  // random by the injector.
  std::vector<common::Seconds> replay_offsets;
  // Model-mode steady-state initial outages (see draw_initial_down).
  std::vector<common::Seconds> initial_down_until;
  // A block transfer whose *source* goes down stalls (TCP rides out a
  // short outage) and resumes when the source returns, shifted by the
  // downtime; it aborts only when the outage exceeds this timeout
  // (Hadoop DFS client behaviour). Must be positive. Transfers whose
  // destination dies always abort (the task fails with its host).
  common::Seconds transfer_stall_timeout = 60.0;
  // Record per-task completion times into JobResult (diagnostics).
  bool record_completion_times = false;
  // -- churn & recovery ---------------------------------------------
  // Permanent departures, dead-node declaration and re-replication.
  // Everything below is inert (and the run byte-identical to before)
  // unless enabled.
  struct ChurnConfig {
    bool enabled = false;
    // Injector: permanent-departure hazard / correlated burst / late
    // joins (see InterruptionInjector::Config).
    double departure_rate = 0.0;
    common::Seconds burst_at = -1.0;
    double burst_fraction = 0.0;
    // Per-domain correlated burst: at domain_burst_at, domain_burst_count
    // random fault domains lose every surviving node at once. domain_of
    // maps node -> leaf domain id (filled automatically by
    // run_experiment when the cluster has a domain layout).
    common::Seconds domain_burst_at = -1.0;
    std::uint32_t domain_burst_count = 0;
    std::vector<std::uint32_t> domain_of;
    std::vector<common::Seconds> join_at;
    // Dead declaration: heartbeat cadence and how long a node must stay
    // believed-down past detection before its replicas are written off.
    // Detection takes two missed beats (HeartbeatCollector's default).
    common::Seconds heartbeat_interval = 3.0;
    common::Seconds dead_timeout = 60.0;
    // -- gray failures ----------------------------------------------
    // Anything below switches the simulation from transition-level
    // heartbeat notifications ("the collector knows transitions
    // exactly") to message-level delivery: nodes emit beats every
    // heartbeat_interval and the collector infers state from what
    // arrives, so lost or partitioned beats cause genuine false
    // positives. All knobs are inert at their defaults.
    //
    // Per-beat Bernoulli loss probability (control plane only; the
    // node keeps running its tasks).
    double heartbeat_loss_prob = 0.0;
    // Timed control-plane partitions: every listed node (or every node
    // of the listed fault domain, resolved through domain_of) is
    // unreachable from the NameNode in [at, heal_at) while its tasks
    // keep running. domain >= 0 requires domain_of.
    struct Partition {
      common::Seconds at = 0.0;
      common::Seconds heal_at = 0.0;
      std::vector<std::uint32_t> nodes;
      std::int64_t domain = -1;
    };
    std::vector<Partition> partitions;
    // Degraded-mode stragglers: node's service rate is divided by
    // slow_factor during [at, until) with no down transition.
    struct Straggler {
      std::uint32_t node = 0;
      common::Seconds at = 0.0;
      common::Seconds until = 0.0;
      double slow_factor = 1.0;
    };
    std::vector<Straggler> stragglers;
    // Silent replica corruption (bitrot). bitrot_rate is a cluster-wide
    // Poisson hazard (events/s) corrupting one random live replica per
    // event, drawn on a dedicated RNG fork; corruptions lists scheduled
    // deterministic corruption events for seeded tests (node < 0 =
    // pick a random live holder of the block).
    double bitrot_rate = 0.0;
    struct Corruption {
      common::Seconds at = 0.0;
      std::uint32_t block = 0;
      std::int64_t node = -1;
    };
    std::vector<Corruption> corruptions;
    // Budgeted background block scanner: every scan_interval seconds,
    // verify checksums of scan_blocks_per_sweep blocks (round-robin).
    // 0 = scanner off; corruption is then only caught on reads.
    common::Seconds scan_interval = 0.0;
    int scan_blocks_per_sweep = 8;
    // NameNode safe mode (partition heuristic): when the fraction of
    // live nodes newly believed dead within one detection window
    // reaches this threshold, defer mass replica write-off for
    // safe_mode_hold seconds; nodes heard from again during the hold
    // are rescued, the rest are written off when it expires. 0 = off.
    // Needs message_level(): the gate sits in the heartbeat round, and
    // transition-level detection declares nodes dead directly.
    double safe_mode_threshold = 0.0;
    common::Seconds safe_mode_hold = 30.0;
    // True when any knob forces message-level heartbeat delivery.
    bool message_level() const {
      return heartbeat_loss_prob > 0.0 || !partitions.empty();
    }
    // True when any gray-failure machinery is active at all (gray
    // metrics/traces are gated on this to keep crash-stop-only runs
    // byte-identical to the pre-gray simulator).
    bool gray_enabled() const {
      return message_level() || !stragglers.empty() ||
             bitrot_rate > 0.0 || !corruptions.empty() ||
             scan_interval > 0.0 || safe_mode_threshold > 0.0;
    }
    // Recovery pipeline knobs (rereplication.enabled switches the
    // pipeline off while keeping dead declaration on).
    ReReplicator::Config rereplication;
    // Builds the re-replication destination policy from the heartbeat
    // collector's current (lambda, mu) estimates; called at start and
    // after every dead declaration / recovery. Null = uniform random
    // over eligible nodes.
    std::function<placement::PolicyPtr(
        const std::vector<avail::InterruptionParams>&)>
        policy_factory;
  };
  ChurnConfig churn;
  // -- online rebalancing -------------------------------------------
  // Close the drift→rebalance loop: predictor-drift alarms trigger a
  // policy refresh and incremental migration of replicas whose
  // placement quality degraded past the hysteresis threshold. Requires
  // churn and calibration (the alarms come from the CUSUM detector).
  struct RebalanceConfig {
    bool enabled = false;
    // Migrate a replica only when its holder's E[T] quote exceeds
    // hysteresis * the cluster median quote — small estimate wobbles
    // must not thrash data around.
    double hysteresis = 2.0;
    // Minimum spacing between rebalance passes.
    common::Seconds cooldown = 120.0;
    // Transfer pipeline throttles (concurrency cap + bytes/s share).
    MigrationDriver::Config migration;
  };
  RebalanceConfig rebalance;
  // -- scheduling ---------------------------------------------------
  // Pluggable attempt/speculation policy (see sim/scheduler_policy.h).
  // Defaults reproduce the historical hardcoded behavior exactly.
  SchedulerConfig scheduler;
  // Optional observability sinks, owned by the caller; null = off. Each
  // instrumented site is a single null check on the disabled path.
  obs::EventTracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanProfiler* spans = nullptr;
  obs::CalibrationTracker* calibration = nullptr;
  // > 0 (and metrics set): sample the metric time-series every this many
  // simulated seconds; the calibration CUSUM steps on the same cadence.
  common::Seconds sample_dt = 0.0;

  // Throws ConfigError on the first out-of-range field. The simulation
  // constructor calls this, so hand-filled aggregates are always checked.
  void validate() const;
};

}  // namespace adapt::sim
