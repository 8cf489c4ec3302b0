// Migration driver: streams pending rebalance moves over the bounded-
// bandwidth network and flips replica metadata only when the bytes have
// actually landed — the data-before-metadata discipline the one-shot
// `adapt` command never needed but online rebalancing must have.
//
// Each submitted move must already be *pending* in the NameNode
// (begin_move recorded it). The driver serves moves in
// submission order (FIFO) under two throttles: a concurrent-transfer
// cap and an optional bytes/s budget share, so rebalance traffic can
// never starve foreground job or recovery traffic. A transfer whose
// source departs retries from another live holder with the
// ReplicaMover's backoff (sim/replica_mover.h); a departed destination
// aborts the pending move and redraws a fresh target from the active
// placement policy. After the retry budget the move is abandoned (the
// source replica is intact, so giving up is always safe).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/replica_mover.h"

namespace adapt::sim {

class MigrationDriver : public ReplicaMover {
 public:
  struct Config {
    int max_concurrent = 2;  // transfer cap (rebalance vs everything else)
    // Token-bucket style rate share: a new transfer may only start once
    // block_bytes / budget_bytes_per_s seconds have elapsed since the
    // previous start. 0 = unlimited.
    double budget_bytes_per_s = 0.0;
    int max_retries = 4;
  };

  // What the driver counts beyond ReplicaMover::Stats (whose `landed`
  // are the committed moves).
  struct MoveStats {
    std::uint64_t submitted = 0;
    std::uint64_t redraws = 0;    // destination replaced mid-move
    std::uint64_t cancelled = 0;  // moot, or dropped by cancel_all
  };

  using MoveFn = std::function<void(hdfs::BlockId, cluster::NodeIndex,
                                    cluster::NodeIndex)>;

  // `up` is the injector's up mask; it must outlive the driver.
  MigrationDriver(EventQueue& queue, hdfs::NameNode& namenode,
                  cluster::Network& network, std::uint64_t block_bytes,
                  Config config, common::Rng rng, const cluster::NodeMask& up);

  // A move committed (block, vacated holder, new holder) — wire
  // scheduler locality updates here.
  void set_on_committed(MoveFn fn) { on_committed_ = std::move(fn); }
  void set_metrics(obs::MetricsRegistry* metrics) override;

  // Admit a move begin_move already recorded.
  void submit(const hdfs::ReplicaMove& move);

  // Abandon all queued and in-flight moves, aborting every pending move
  // still held — called at job teardown so a NameNode that outlives the
  // simulation carries no orphan pending moves.
  void cancel_all();

  const MoveStats& move_stats() const { return move_stats_; }

 private:
  // Start moves in submission order, gated by the budget.
  void drain() override;
  void land(const Flight& flight) override;
  // Aborts the move's pending record, if the NameNode still holds one.
  void abandon(const hdfs::ReplicaMove& move) override;
  // Start, drop (moot) or defer the pending move at `index`.
  void start_move(std::size_t index);

  double budget_bytes_per_s_;
  MoveFn on_committed_;
  common::Seconds budget_free_at_ = 0.0;  // next start the budget permits
  MoveStats move_stats_;

  obs::MetricsRegistry::Id ctr_submitted_ = 0;
  obs::MetricsRegistry::Id ctr_redraws_ = 0;
};

}  // namespace adapt::sim
