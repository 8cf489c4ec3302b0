// Replica copying shared by every path that creates a replica from an
// existing one (ReReplicator, MigrationDriver and the simulation's
// rebalance pass): which holder streams the bytes, which node the new
// replica lands on, and the engine both drivers copy blocks with.
//
// Liveness is read from the injector's up mask
// (InterruptionInjector::up()); nothing here keeps a copy of it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/network.h"
#include "cluster/node_mask.h"
#include "common/rng.h"
#include "hdfs/namenode.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "placement/policy.h"
#include "sim/event_queue.h"

namespace adapt::sim {

// The up holder whose uplink frees up earliest (ties by lower index);
// every holder has the bytes, so none gets a preference. nullopt when
// every holder is down.
std::optional<cluster::NodeIndex> pick_transfer_source(
    const std::vector<cluster::NodeIndex>& holders,
    const cluster::Network& network, const cluster::NodeMask& up);

// Destination of a new replica of `block`: the policy's keyed draw
// (block, ordinal) over the NameNode's eligibility for a new replica,
// restricted to up nodes. nullopt, with the rng untouched, when no node
// qualifies.
std::optional<cluster::NodeIndex> draw_replica_target(
    const hdfs::NameNode& namenode, hdfs::BlockId block,
    std::uint32_t ordinal, const cluster::NodeMask& up,
    const placement::PlacementPolicy& policy, common::Rng& rng);

// The copy engine under both data movers: copies one block at a time
// from a live holder to a chosen node over the bounded-bandwidth
// network, under a concurrent-transfer cap. A transfer whose source or
// destination goes down (or whose destination is written off) aborts
// and retries with exponential backoff + jitter (sim/backoff.h's defaults:
// 5 s doubling, ±20%, capped at 600 s); after max_retries the copy is
// given up.
//
// The engine owns the copies waiting to start, the in-flight table
// keyed by network ticket, the failure sweeps, retry and give-up, and
// the pump. A driver supplies which waiting copy starts next and where
// it goes (drain), what a landed copy changes (land) and what giving up
// releases (abandon).
class ReplicaMover {
 public:
  struct Stats {
    std::uint64_t started = 0;      // transfers begun (incl. retries)
    std::uint64_t landed = 0;       // transfers whose bytes arrived
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;      // retry budget exhausted
    std::uint64_t bytes_moved = 0;
    std::uint64_t max_backlog = 0;  // peak waiting + in flight
  };

  // What one driver's records are called.
  struct Vocabulary {
    const char* name;            // error prefix and metric namespace
    const char* span;            // one pump() batch
    const char* landed_metric;   // counter of landed transfers
    const char* backlog_metric;  // gauge of max_backlog
    obs::EventType start, landed, retry, giveup;
  };

  ReplicaMover(const ReplicaMover&) = delete;
  ReplicaMover& operator=(const ReplicaMover&) = delete;
  virtual ~ReplicaMover() = default;

  // Destination sampler; refresh whenever availability estimates change.
  void set_policy(placement::PolicyPtr policy) { policy_ = std::move(policy); }
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }
  virtual void set_metrics(obs::MetricsRegistry* metrics);
  // Profile each pump() batch as a span; `clock` supplies sim time and
  // must outlive the mover.
  void set_spans(obs::SpanProfiler* spans, const EventQueue* clock) {
    spans_ = spans;
    span_clock_ = clock;
  }

  // Availability change notifications from the simulation. A returning
  // node may unblock a source or destination; a down node fails the
  // transfers into and out of it; a node declared dead while still up
  // fails the transfers into it (those it serves continue).
  void on_node_up(cluster::NodeIndex node);
  void on_node_down(cluster::NodeIndex node);
  void on_node_written_off(cluster::NodeIndex node);

  const Stats& stats() const { return stats_; }
  // Copies waiting or in flight.
  std::size_t backlog() const { return pending_.size() + in_flight_.size(); }
  bool idle() const { return backlog() == 0; }

 protected:
  // A copy waiting to start. `move.to` is the pending destination for a
  // migration; a repair draws its destination when it starts.
  struct Item {
    hdfs::ReplicaMove move;
    int retries = 0;
    common::Seconds not_before = 0.0;  // backoff gate
  };
  struct Flight {
    hdfs::ReplicaMove move;      // move.to = destination
    cluster::NodeIndex src = 0;  // byte source (any live holder)
    int retries = 0;
    cluster::TransferGrant grant;
    EventQueue::Handle done;
  };

  // `up` is the injector's up mask; it must outlive the mover.
  ReplicaMover(EventQueue& queue, hdfs::NameNode& namenode,
               cluster::Network& network, const cluster::NodeMask& up,
               std::uint64_t block_bytes, int max_concurrent,
               int max_retries, common::Rng rng,
               const Vocabulary& vocabulary);

  // Start waiting copies while below the concurrency cap (below_cap);
  // pump() calls it once a destination policy is set.
  virtual void drain() = 0;
  // `flight` landed, already counted and traced: apply it.
  virtual void land(const Flight& flight) = 0;
  // The retry budget of `move` ran out.
  virtual void abandon(const hdfs::ReplicaMove& move) = 0;

  // Queue a copy and pump.
  void admit(Item item);
  void pump();
  // Nowhere to go right now (every node up is full or a holder, or
  // every holder is down): gate pending_[index] behind a flat delay and
  // pump then. The retry budget is not consumed; a full cluster is not
  // a transfer failure.
  void defer(std::size_t index);
  // Stream pending_[index] from `src` to `dst`.
  void start(std::size_t index, cluster::NodeIndex src,
             cluster::NodeIndex dst);
  bool below_cap() const {
    return static_cast<int>(in_flight_.size()) < max_concurrent_;
  }
  void count(obs::MetricsRegistry::Id id, double v = 1.0) {
    if (metrics_ != nullptr) metrics_->add(id, v);
  }

  EventQueue& queue_;
  hdfs::NameNode& namenode_;
  cluster::Network& network_;
  const cluster::NodeMask& up_;
  std::uint64_t block_bytes_;
  common::Rng rng_;
  placement::PolicyPtr policy_;
  std::vector<Item> pending_;
  std::vector<Flight> in_flight_;

 private:
  void trace(obs::TraceRecord r) {
    if (tracer_ != nullptr) {
      r.t = queue_.now();
      tracer_->record(r);
    }
  }
  void note_backlog();
  Flight take_flight(std::size_t index);  // swap-removes it
  void on_transfer_done(std::uint64_t ticket);
  // Fail the in-flight copies into `node` (and out of it when
  // `as_source`), then pump.
  void fail_touching(cluster::NodeIndex node, bool as_source);
  void schedule_retry(Item item, obs::TraceReason reason);

  int max_concurrent_;
  int max_retries_;
  Vocabulary vocabulary_;
  obs::EventTracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanProfiler* spans_ = nullptr;
  const EventQueue* span_clock_ = nullptr;
  Stats stats_;

  obs::MetricsRegistry::Id ctr_started_ = 0;
  obs::MetricsRegistry::Id ctr_landed_ = 0;
  obs::MetricsRegistry::Id ctr_retries_ = 0;
  obs::MetricsRegistry::Id ctr_giveups_ = 0;
  obs::MetricsRegistry::Id ctr_bytes_ = 0;
  obs::MetricsRegistry::Id gauge_backlog_ = 0;
};

}  // namespace adapt::sim
