// Task-selection bookkeeping for the map-phase scheduler.
//
// Mirrors Hadoop's JobTracker view of a map wave: every block is one map
// task; a TaskTracker asking for work is served, in order of preference,
//   1. a pending task with a replica on that node       (data-local)
//   2. any pending task with a live replica             (remote fetch)
//   3. a pending task whose replicas are all offline    (origin re-fetch)
//   4. a duplicate of a slow running attempt            (speculation —
//      handled by the simulator, which owns attempt state)
//
// The board tracks task status plus the queues serving (1)-(3) with lazy
// deletion, so every operation is amortized O(replica count).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cluster/node.h"
#include "obs/trace.h"

namespace adapt::sim {

using TaskId = std::uint32_t;

enum class TaskStatus : std::uint8_t { kPending, kRunning, kDone };

class TaskBoard {
 public:
  // home_nodes[t] = nodes holding a replica of task t's block.
  explicit TaskBoard(
      std::vector<std::vector<cluster::NodeIndex>> home_nodes,
      std::size_t node_count);

  std::size_t task_count() const { return status_.size(); }
  std::size_t done_count() const { return done_; }
  bool all_done() const { return done_ == status_.size(); }
  std::size_t pending_count() const { return pending_; }

  TaskStatus status(TaskId task) const { return status_.at(task); }
  const std::vector<cluster::NodeIndex>& home_nodes(TaskId task) const {
    return home_nodes_.at(task);
  }
  bool is_local_to(TaskId task, cluster::NodeIndex node) const;

  // -- status transitions -------------------------------------------
  // All tasks start pending (done by the constructor).
  void mark_running(TaskId task);
  // A failed attempt puts the task back; it re-enters the global queue.
  void mark_pending(TaskId task);
  void mark_done(TaskId task);

  // -- the three take paths -----------------------------------------
  // (1) A pending task local to `node`, if any.
  std::optional<TaskId> take_local(cluster::NodeIndex node);
  // (2) The next globally pending task for which `has_source`
  // holds; tasks failing the predicate are parked on the stalled queue,
  // stamped with the park time `now`.
  template <typename Pred>
  std::optional<TaskId> take_remote(common::Seconds now,
                                    const Pred& has_source);
  // (3) A parked task that has been stalled for at least `min_age`
  // seconds (ripe for an origin re-fetch).
  std::optional<TaskId> take_stalled(common::Seconds now,
                                     common::Seconds min_age);
  // Park time of the oldest genuinely stalled task, if any.
  std::optional<common::Seconds> next_stalled_park();

  // A node recovered: its pending home tasks parked as stalled become
  // fetchable again. Returns how many were revived; `now` only stamps
  // the trace records.
  std::size_t revive_stalled_for(cluster::NodeIndex node,
                                 common::Seconds now = 0.0);

  // -- multi-attempt awareness --------------------------------------
  // The board tracks which attempt ids currently execute each task so
  // scheduler policies can reason about duplicates (speculation caps,
  // redundant launches, sibling cancellation) without the simulator
  // owning a parallel side table. Ids are opaque to the board.
  void register_attempt(TaskId task, std::uint32_t attempt);
  void unregister_attempt(TaskId task, std::uint32_t attempt);
  std::size_t attempt_count(TaskId task) const {
    return attempts_.at(task).size();
  }
  // Launch-ordered; invalidated by register/unregister.
  const std::vector<std::uint32_t>& attempts_of(TaskId task) const {
    return attempts_.at(task);
  }

  // -- replica-set churn --------------------------------------------
  // A re-replicated copy landed on `node`: the task becomes local there.
  void add_home(TaskId task, cluster::NodeIndex node);
  // `node` lost its copy (declared dead): the task is no longer local
  // there. The node's task list keeps a lazily-skipped stale entry.
  void remove_home(TaskId task, cluster::NodeIndex node);

  // Emit park/revive records to `tracer` (null = off).
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }

 private:
  struct Flags {
    bool in_global = false;
    bool in_stalled = false;
  };

  void push_global(TaskId task);

  std::vector<std::vector<cluster::NodeIndex>> home_nodes_;
  // node -> tasks homed there (immutable lists, scanned with a cursor).
  std::vector<std::vector<TaskId>> node_tasks_;
  std::vector<std::size_t> node_pending_;  // pending tasks homed per node
  std::vector<std::size_t> node_cursor_;   // take_local scan position

  // A stalled entry remembers the park time it was queued with; after a
  // revive + re-park the task's stalled_since_ moves forward and the old
  // entry (now a stale duplicate) is recognized by the mismatch.
  struct StalledEntry {
    TaskId task;
    common::Seconds parked_at;
  };

  std::vector<TaskStatus> status_;
  std::vector<Flags> flags_;
  // task -> attempt ids currently executing it (launch order).
  std::vector<std::vector<std::uint32_t>> attempts_;
  std::vector<common::Seconds> stalled_since_;
  std::deque<TaskId> global_;
  std::deque<StalledEntry> stalled_;
  std::size_t done_ = 0;
  std::size_t pending_ = 0;
  obs::EventTracer* tracer_ = nullptr;
};

template <typename Pred>
std::optional<TaskId> TaskBoard::take_remote(common::Seconds now,
                                             const Pred& has_source) {
  while (!global_.empty()) {
    const TaskId task = global_.front();
    global_.pop_front();
    flags_[task].in_global = false;
    if (status_[task] != TaskStatus::kPending) continue;
    if (has_source(task)) return task;
    if (!flags_[task].in_stalled) {
      flags_[task].in_stalled = true;
      stalled_since_[task] = now;
      stalled_.push_back({task, now});
      if (tracer_ != nullptr) {
        obs::TraceRecord r;
        r.t = now;
        r.type = obs::EventType::kTaskPark;
        r.task = task;
        tracer_->record(r);
      }
    }
  }
  return std::nullopt;
}

}  // namespace adapt::sim
