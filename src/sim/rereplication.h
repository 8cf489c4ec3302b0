// NameNode re-replication pipeline: restores the replication factor of
// blocks whose holders were declared dead (volunteer churn), draining a
// prioritized under-replicated queue over the bounded-bandwidth network.
//
// Queue discipline: fewest live replicas first (ties by block id) — the
// blocks closest to loss are repaired first, matching HDFS's replication
// priority queues. The drain is throttled by a concurrent-transfer cap so
// recovery traffic cannot starve job traffic, and each block retries with
// exponential backoff + jitter when its source or destination goes down
// mid-transfer; after the retry budget the pipeline gives up on the block
// (it may still be readable from its surviving replicas).
//
// Source: the live replica holder whose uplink frees up earliest.
// Destination: drawn from the active placement policy over nodes that are
// up, not dead, not already holding the block, and with free space — the
// caller refreshes the policy with current (lambda, mu) estimates via
// set_policy whenever its availability beliefs change.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/network.h"
#include "common/rng.h"
#include "hdfs/namenode.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "placement/policy.h"
#include "sim/backoff.h"
#include "sim/event_queue.h"
#include "sim/replica_endpoints.h"

namespace adapt::sim {

class ReReplicator {
 public:
  struct Config {
    bool enabled = true;
    int max_concurrent = 4;  // transfer cap (recovery vs job bandwidth)
    int max_retries = 6;
    // Retry delays: base * factor^n, jittered, capped (sim/backoff.h).
    BackoffParams backoff;
  };

  struct Stats {
    std::uint64_t enqueued = 0;       // blocks ever admitted to the queue
    std::uint64_t started = 0;        // transfers begun (incl. retries)
    std::uint64_t completed = 0;      // replicas restored
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;        // retry budget exhausted
    std::uint64_t unrecoverable = 0;  // dropped with zero live replicas
    std::uint64_t bytes_moved = 0;
    std::uint64_t max_under_replicated = 0;  // peak queue + in-flight
  };

  using NodeUpFn = sim::NodeUpFn;
  using ReplicatedFn = std::function<void(hdfs::BlockId, cluster::NodeIndex)>;

  // `node_up` answers whether a node can move data right now; it must
  // stay valid for the ReReplicator's lifetime.
  ReReplicator(EventQueue& queue, hdfs::NameNode& namenode,
               cluster::Network& network, std::uint64_t block_bytes,
               Config config, common::Rng rng, NodeUpFn node_up);

  // Destination sampler; refresh whenever availability estimates change.
  void set_policy(placement::PolicyPtr policy);
  // A replica landed (block, destination) — wire scheduler updates here.
  void set_on_replicated(ReplicatedFn fn) { on_replicated_ = std::move(fn); }
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* metrics);
  // Profile each pump() batch as a "rereplication_batch" span; `clock`
  // supplies sim time and must outlive the ReReplicator.
  void set_spans(obs::SpanProfiler* spans, const EventQueue* clock) {
    spans_ = spans;
    span_clock_ = clock;
  }

  // Admit a block that dropped below its target replication. Blocks
  // already queued or in flight are ignored; blocks with zero live
  // replicas are unrecoverable and dropped (the job layer handles data
  // loss). No-op when disabled.
  void enqueue(hdfs::BlockId block);

  // Availability change notifications from the simulation.
  void on_node_up(cluster::NodeIndex node);
  void on_node_down(cluster::NodeIndex node);
  // `node` was declared dead while still up: repairs into it can no
  // longer land (they retry elsewhere); repairs it serves continue.
  void on_node_written_off(cluster::NodeIndex node);

  const Stats& stats() const { return stats_; }
  // Blocks still awaiting repair (queued or in flight).
  std::size_t backlog() const { return pending_.size() + in_flight_.size(); }
  bool idle() const { return backlog() == 0; }

 private:
  struct Repair {
    hdfs::BlockId block = 0;
    int retries = 0;
    common::Seconds not_before = 0.0;  // backoff gate
  };
  struct Transfer {
    hdfs::BlockId block = 0;
    cluster::NodeIndex src = 0;
    cluster::NodeIndex dst = 0;
    int retries = 0;
    cluster::TransferGrant grant;
    EventQueue::Handle done;
  };

  // Start transfers while below the concurrency cap and work is ready;
  // profiled as one "rereplication_batch" span when there is a backlog.
  void pump();
  void drain();
  bool start_repair(std::size_t pending_index);
  void on_transfer_done(std::uint64_t ticket);
  void fail_transfer(std::size_t index, obs::TraceReason reason);
  // Fail the in-flight transfers into `node` (and out of it when
  // `as_source`), then pump.
  void fail_touching(cluster::NodeIndex node, bool as_source);
  void schedule_retry(hdfs::BlockId block, int retries_done,
                      obs::TraceReason reason);
  void finish_block(hdfs::BlockId block);  // leaves the tracked set

  int target_replication(hdfs::BlockId block) const;
  bool tracked(hdfs::BlockId block) const;
  void note_backlog();

  void trace(obs::TraceRecord r) {
    if (tracer_ != nullptr) {
      r.t = queue_.now();
      tracer_->record(r);
    }
  }

  EventQueue& queue_;
  hdfs::NameNode& namenode_;
  cluster::Network& network_;
  std::uint64_t block_bytes_;
  Config config_;
  common::Rng rng_;
  NodeUpFn node_up_;
  placement::PolicyPtr policy_;
  ReplicatedFn on_replicated_;
  obs::EventTracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanProfiler* spans_ = nullptr;
  const EventQueue* span_clock_ = nullptr;

  std::vector<Repair> pending_;
  std::vector<Transfer> in_flight_;
  std::vector<hdfs::BlockId> tracked_;  // pending + in-flight block ids
  Stats stats_;

  obs::MetricsRegistry::Id ctr_started_ = 0;
  obs::MetricsRegistry::Id ctr_completed_ = 0;
  obs::MetricsRegistry::Id ctr_retries_ = 0;
  obs::MetricsRegistry::Id ctr_giveups_ = 0;
  obs::MetricsRegistry::Id ctr_bytes_ = 0;
  obs::MetricsRegistry::Id gauge_backlog_ = 0;
};

}  // namespace adapt::sim
