// Migration driver: streams pending rebalance moves over the bounded-
// bandwidth network and flips replica metadata only when the bytes have
// actually landed — the data-before-metadata discipline the one-shot
// `adapt` command never needed but online rebalancing must have.
//
// Each submitted move must already be *pending* in the NameNode
// (begin_move reserved destination space). The driver serves moves in
// submission order (FIFO) under two throttles: a concurrent-transfer
// cap and an optional bytes/s budget share, so rebalance traffic can
// never starve foreground job or recovery traffic. A transfer whose
// source departs retries from another live holder with exponential
// backoff + jitter; a departed destination aborts the reservation and
// redraws a fresh target from the active placement policy. After the
// retry budget the move is abandoned (the source replica is intact, so
// giving up is always safe).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/network.h"
#include "common/rng.h"
#include "hdfs/namenode.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "placement/policy.h"
#include "sim/backoff.h"
#include "sim/event_queue.h"
#include "sim/replica_endpoints.h"

namespace adapt::sim {

class MigrationDriver {
 public:
  struct Config {
    int max_concurrent = 2;  // transfer cap (rebalance vs everything else)
    // Token-bucket style rate share: a new transfer may only start once
    // block_bytes / budget_bytes_per_s seconds have elapsed since the
    // previous start. 0 = unlimited.
    double budget_bytes_per_s = 0.0;
    int max_retries = 4;
    // Retry delays: base * factor^n, jittered, capped (sim/backoff.h).
    BackoffParams backoff;
  };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t started = 0;    // transfers begun (incl. retries)
    std::uint64_t committed = 0;  // moves whose metadata flipped
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;    // retry budget exhausted
    std::uint64_t redraws = 0;    // destination replaced mid-move
    std::uint64_t cancelled = 0;  // dropped by cancel_all
    std::uint64_t bytes_moved = 0;
    std::uint64_t max_backlog = 0;  // peak pending + in-flight
  };

  using NodeUpFn = sim::NodeUpFn;
  using MoveFn = std::function<void(hdfs::BlockId, cluster::NodeIndex,
                                    cluster::NodeIndex)>;

  // `node_up` answers whether a node can move data right now; it must
  // stay valid for the driver's lifetime.
  MigrationDriver(EventQueue& queue, hdfs::NameNode& namenode,
                  cluster::Network& network, std::uint64_t block_bytes,
                  Config config, common::Rng rng, NodeUpFn node_up);

  // Destination sampler for redraws; refresh alongside the scheduler's
  // policy whenever availability estimates change.
  void set_policy(placement::PolicyPtr policy);
  // A move committed (block, vacated holder, new holder) — wire
  // scheduler locality updates here.
  void set_on_committed(MoveFn fn) { on_committed_ = std::move(fn); }
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* metrics);
  // Profile each pump() batch as a "migration_batch" span; `clock`
  // supplies sim time and must outlive the driver.
  void set_spans(obs::SpanProfiler* spans, const EventQueue* clock) {
    spans_ = spans;
    span_clock_ = clock;
  }

  // Admit a move begin_move already reserved. No-op when disabled (the
  // caller should then abort the pending move itself).
  void submit(const hdfs::ReplicaMove& move);

  // Availability change notifications from the simulation.
  void on_node_up(cluster::NodeIndex node);
  void on_node_down(cluster::NodeIndex node);
  // `node` was declared dead while still up: moves into it lost their
  // reservation (they redraw a target); moves it serves continue.
  void on_node_written_off(cluster::NodeIndex node);

  // Abandon all queued and in-flight moves, releasing every reservation
  // still held — called at job teardown so a NameNode that outlives the
  // simulation carries no orphan reservations.
  void cancel_all();

  const Stats& stats() const { return stats_; }
  std::size_t backlog() const { return pending_.size() + in_flight_.size(); }
  bool idle() const { return backlog() == 0; }

 private:
  struct Item {
    hdfs::ReplicaMove move;
    int retries = 0;
    common::Seconds not_before = 0.0;  // backoff gate
  };
  struct Flight {
    hdfs::ReplicaMove move;
    cluster::NodeIndex src = 0;  // actual byte source (may differ from from)
    int retries = 0;
    cluster::TransferGrant grant;
    EventQueue::Handle done;
  };

  void pump();
  void drain();
  // Start the pending item at `index`. Returns false when the pump
  // should stop scanning (budget gate or nothing startable).
  bool start_move(std::size_t index);
  void on_transfer_done(std::uint64_t ticket);
  void fail_flight(std::size_t index, obs::TraceReason reason);
  // Fail the in-flight moves into `node` (and those it sources when
  // `as_source`), then pump.
  void fail_touching(cluster::NodeIndex node, bool as_source);
  void schedule_retry(Item item, obs::TraceReason reason);
  void release_reservation(const hdfs::ReplicaMove& move);
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
  MoveFn on_committed_;
  obs::EventTracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanProfiler* spans_ = nullptr;
  const EventQueue* span_clock_ = nullptr;

  std::vector<Item> pending_;    // FIFO in submission order
  std::vector<Flight> in_flight_;
  common::Seconds budget_free_at_ = 0.0;  // next start the budget permits
  Stats stats_;

  obs::MetricsRegistry::Id ctr_submitted_ = 0;
  obs::MetricsRegistry::Id ctr_started_ = 0;
  obs::MetricsRegistry::Id ctr_committed_ = 0;
  obs::MetricsRegistry::Id ctr_retries_ = 0;
  obs::MetricsRegistry::Id ctr_giveups_ = 0;
  obs::MetricsRegistry::Id ctr_redraws_ = 0;
  obs::MetricsRegistry::Id ctr_bytes_ = 0;
  obs::MetricsRegistry::Id gauge_backlog_ = 0;
};

}  // namespace adapt::sim
