#include "obs/lineage.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/jsonfmt.h"

namespace adapt::obs {

namespace {

using common::json_number;

constexpr std::uint32_t kOrigin = std::numeric_limits<std::uint32_t>::max();

std::string endpoint_str(std::uint32_t node) {
  return node == kOrigin ? "-1" : std::to_string(node);
}

std::string fmt_t(common::Seconds t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}

}  // namespace

const char* to_string(LineageStepKind kind) {
  switch (kind) {
    case LineageStepKind::kPlaced:
      return "placed";
    case LineageStepKind::kRereplicated:
      return "rereplicated";
    case LineageStepKind::kMigrated:
      return "migrated";
    case LineageStepKind::kWriteoff:
      return "writeoff";
    case LineageStepKind::kRestored:
      return "restored";
    case LineageStepKind::kTrimmed:
      return "trimmed";
    case LineageStepKind::kCorrupted:
      return "corrupted";
    case LineageStepKind::kCorruptDropped:
      return "corrupt_dropped";
    case LineageStepKind::kLost:
      return "lost";
    case LineageStepKind::kRepairStart:
      return "repair_start";
    case LineageStepKind::kRepairRetry:
      return "repair_retry";
    case LineageStepKind::kRepairGiveup:
      return "repair_giveup";
  }
  return "?";
}

const char* to_string(LossCause cause) {
  switch (cause) {
    case LossCause::kCorruptionNoSurvivor:
      return "corruption_no_survivor";
    case LossCause::kFalsePositiveWriteoff:
      return "false_positive_writeoff";
    case LossCause::kRetryExhaustion:
      return "retry_exhaustion";
    case LossCause::kAllHoldersDeadWithinWindow:
      return "all_holders_dead_within_window";
    case LossCause::kUnclassified:
      return "unclassified";
  }
  return "?";
}

// ---------------------------------------------------------------------
// LineageIndex
// ---------------------------------------------------------------------

BlockLineage& LineageIndex::touch_block(std::uint32_t block) {
  if (blocks_.size() <= block) blocks_.resize(block + 1);
  BlockState& s = blocks_[block];
  if (!s.touched) {
    s.touched = true;
    s.lineage.block = block;
  }
  return s.lineage;
}

TaskLineage& LineageIndex::touch_task(std::uint32_t task) {
  if (tasks_.size() <= task) tasks_.resize(task + 1);
  TaskState& s = tasks_[task];
  if (!s.touched) {
    s.touched = true;
    s.lineage.task = task;
  }
  return s.lineage;
}

void LineageIndex::push_step(BlockLineage& b, const LineageStep& step) {
  if (b.steps.size() < kMaxStepsPerBlock) {
    b.steps.push_back(step);
  } else {
    ++b.truncated_steps;
  }
}

bool LineageIndex::add_holder(BlockLineage& b, std::uint32_t node) {
  if (std::find(b.holders.begin(), b.holders.end(), node) !=
      b.holders.end()) {
    return false;
  }
  b.holders.push_back(node);
  b.had_holders = true;
  // A live copy exists again: any standing zero-replica verdict is void.
  b.lost = false;
  b.emptied_by_corruption = false;
  return true;
}

void LineageIndex::remove_holder(BlockLineage& b, std::uint32_t node) {
  b.holders.erase(std::remove(b.holders.begin(), b.holders.end(), node),
                  b.holders.end());
}

void LineageIndex::observe(const TraceRecord& r) {
  ++records_seen_;
  if (r.t > last_t_) last_t_ = r.t;
  switch (r.type) {
    case EventType::kJobStart: {
      if (node_up_.size() < r.node) node_up_.resize(r.node, 1);
      break;
    }
    case EventType::kJobEnd:
      elapsed_ = r.t;
      break;
    case EventType::kNodeDown: {
      if (node_up_.size() <= r.node) node_up_.resize(r.node + 1, 1);
      node_up_[r.node] = 0;
      break;
    }
    case EventType::kNodeUp: {
      if (node_up_.size() <= r.node) node_up_.resize(r.node + 1, 1);
      node_up_[r.node] = 1;
      break;
    }
    case EventType::kPlacement: {
      BlockLineage& b = touch_block(r.task);
      // Re-replication and migration landings echo a placement record
      // for the board; the holder is already registered then, so only a
      // genuinely new holder becomes a "placed" hop.
      if (add_holder(b, r.node)) {
        push_step(b, {r.t, LineageStepKind::kPlaced, r.node, r.aux, r.v0});
      }
      break;
    }
    case EventType::kReplicaWriteoff: {
      BlockLineage& b = touch_block(r.task);
      remove_holder(b, r.node);
      push_step(b, {r.t, LineageStepKind::kWriteoff, r.node, r.aux, 0.0});
      if (r.aux != 0) b.false_writeoff = true;
      break;
    }
    case EventType::kReplicaRestore: {
      BlockLineage& b = touch_block(r.task);
      if (add_holder(b, r.node)) {
        push_step(b, {r.t, LineageStepKind::kRestored, r.node, 0, 0.0});
      }
      break;
    }
    case EventType::kReplicaTrim: {
      BlockLineage& b = touch_block(r.task);
      remove_holder(b, r.node);
      push_step(b, {r.t, LineageStepKind::kTrimmed, r.node, 0, 0.0});
      break;
    }
    case EventType::kReplicaCorrupt: {
      BlockLineage& b = touch_block(r.task);
      push_step(b, {r.t, LineageStepKind::kCorrupted, r.node, 0, 0.0});
      break;
    }
    case EventType::kCorruptRead: {
      BlockLineage& b = touch_block(r.task);
      remove_holder(b, r.node);
      push_step(b,
                {r.t, LineageStepKind::kCorruptDropped, r.node, r.aux, 0.0});
      if (b.holders.empty()) b.emptied_by_corruption = true;
      break;
    }
    case EventType::kReplicaLost: {
      BlockLineage& b = touch_block(r.task);
      push_step(b, {r.t, LineageStepKind::kLost, 0, r.aux, 0.0});
      b.saw_loss_event = true;
      if (r.aux == 0) {  // not origin-recoverable
        b.lost = true;
        b.lost_at = r.t;
      }
      break;
    }
    case EventType::kRereplicationStart: {
      BlockLineage& b = touch_block(r.task);
      push_step(b, {r.t, LineageStepKind::kRepairStart, r.node, r.aux, 0.0});
      b.repair_attempted = true;
      break;
    }
    case EventType::kRereplicationDone: {
      BlockLineage& b = touch_block(r.task);
      if (add_holder(b, r.node)) {
        push_step(b,
                  {r.t, LineageStepKind::kRereplicated, r.node, r.peer, r.v0});
      }
      break;
    }
    case EventType::kRereplicationRetry: {
      BlockLineage& b = touch_block(r.task);
      push_step(b, {r.t, LineageStepKind::kRepairRetry, 0, r.aux, 0.0});
      b.repair_attempted = true;
      break;
    }
    case EventType::kRereplicationGiveup: {
      BlockLineage& b = touch_block(r.task);
      push_step(b, {r.t, LineageStepKind::kRepairGiveup, 0, r.aux, 0.0});
      b.repair_attempted = true;
      b.repair_gaveup = true;
      break;
    }
    case EventType::kMigrationCommit: {
      BlockLineage& b = touch_block(r.task);
      if (add_holder(b, r.node)) {
        push_step(b, {r.t, LineageStepKind::kMigrated, r.node, r.peer, r.v0});
      }
      remove_holder(b, r.peer);
      break;
    }
    case EventType::kAttemptStart: {
      TaskLineage& t = touch_task(r.task);
      if (t.attempts.size() < kMaxAttemptsPerTask) {
        AttemptNode a;
        a.start = r.t;
        a.node = r.node;
        a.src = r.peer;
        a.ticket = r.ticket;
        a.speculative = r.aux != 0;
        t.attempts.push_back(a);
      } else {
        ++t.truncated_attempts;
      }
      break;
    }
    case EventType::kAttemptFinish: {
      TaskLineage& t = touch_task(r.task);
      t.done = true;
      t.done_at = r.t;
      for (auto it = t.attempts.rbegin(); it != t.attempts.rend(); ++it) {
        if (it->end < 0.0 && it->node == r.node) {
          it->end = r.t;
          it->finished = true;
          break;
        }
      }
      break;
    }
    case EventType::kAttemptKill: {
      TaskLineage& t = touch_task(r.task);
      for (auto it = t.attempts.rbegin(); it != t.attempts.rend(); ++it) {
        if (it->end < 0.0 && it->node == r.node) {
          it->end = r.t;
          it->killed = true;
          it->kill_reason = r.reason;
          break;
        }
      }
      break;
    }
    case EventType::kTransferStall: {
      TaskLineage& t = touch_task(r.task);
      for (auto it = t.attempts.rbegin(); it != t.attempts.rend(); ++it) {
        if (it->end < 0.0 && it->ticket == r.ticket) {
          ++it->stalls;
          break;
        }
      }
      break;
    }
    case EventType::kTaskPark: {
      ++touch_task(r.task).parks;
      break;
    }
    default:
      break;
  }
}

LineageSnapshot LineageIndex::take_snapshot() const {
  LineageSnapshot out;
  out.records_seen = records_seen_;
  out.elapsed = elapsed_ >= 0.0 ? elapsed_ : last_t_;

  const auto node_down = [this](std::uint32_t node) {
    return node < node_up_.size() && node_up_[node] == 0;
  };

  for (const BlockState& s : blocks_) {
    if (!s.touched) continue;
    BlockLineage b = s.lineage;
    std::sort(b.holders.begin(), b.holders.end());

    const bool task_done = b.block < tasks_.size() &&
                           tasks_[b.block].touched &&
                           tasks_[b.block].lineage.done;
    if (task_done) {
      // A finished task cannot lose its input, whatever the metadata
      // says (a live attempt already held the bytes and won).
      b.lost = false;
    } else if (!b.lost && b.had_holders) {
      // End-state verdict: the run ended with this task undone and no
      // holder able to serve it — covers the no-live-nodes shutdown,
      // which writes tasks off without a zero-replica event.
      bool all_down = true;
      for (const std::uint32_t n : b.holders) {
        if (!node_down(n)) {
          all_down = false;
          break;
        }
      }
      if (b.holders.empty() || all_down) {
        b.lost = true;
        b.lost_at = out.elapsed;
      }
    }
    out.blocks.push_back(std::move(b));
  }

  for (const TaskState& s : tasks_) {
    if (!s.touched) continue;
    out.tasks.push_back(s.lineage);
  }
  return out;
}

LineageSnapshot build_lineage(const std::vector<TraceRecord>& records) {
  LineageIndex index;
  for (const TraceRecord& r : records) index.observe(r);
  return index.take_snapshot();
}

namespace {

template <typename T>
const T* find_by_id(const std::vector<T>& sorted, std::uint32_t id,
                    std::uint32_t T::*key) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), id,
      [key](const T& entry, std::uint32_t value) {
        return entry.*key < value;
      });
  if (it == sorted.end() || (*it).*key != id) return nullptr;
  return &*it;
}

}  // namespace

const BlockLineage* find_block(const LineageSnapshot& snapshot,
                               std::uint32_t block) {
  return find_by_id(snapshot.blocks, block, &BlockLineage::block);
}

const TaskLineage* find_task(const LineageSnapshot& snapshot,
                             std::uint32_t task) {
  return find_by_id(snapshot.tasks, task, &TaskLineage::task);
}

// ---------------------------------------------------------------------
// Loss post-mortems
// ---------------------------------------------------------------------

LossCause classify_loss(const BlockLineage& b) {
  // Fixed precedence, most specific evidence first (see lineage.h).
  if (b.emptied_by_corruption) return LossCause::kCorruptionNoSurvivor;
  if (b.false_writeoff) return LossCause::kFalsePositiveWriteoff;
  if (b.repair_attempted) return LossCause::kRetryExhaustion;
  // No repair ever started: every holder was written off before a
  // recovery transfer could even be reserved, i.e. all of them died
  // within one detection window of each other.
  if (b.had_holders) return LossCause::kAllHoldersDeadWithinWindow;
  return LossCause::kUnclassified;
}

LossReport post_mortem(const LineageSnapshot& snapshot) {
  LossReport out;
  for (const BlockLineage& b : snapshot.blocks) {
    if (!b.lost) continue;
    LossPostMortem pm;
    pm.block = b.block;
    pm.cause = classify_loss(b);
    pm.lost_at = b.lost_at;
    for (const LineageStep& s : b.steps) {
      switch (s.kind) {
        case LineageStepKind::kWriteoff:
          ++pm.writeoffs;
          break;
        case LineageStepKind::kRepairStart:
        case LineageStepKind::kRepairRetry:
          ++pm.repair_attempts;
          break;
        default:
          break;
      }
    }
    ++out.counts[static_cast<std::size_t>(pm.cause)];
    ++out.total;
    out.losses.push_back(pm);
  }
  return out;
}

// ---------------------------------------------------------------------
// Rendering & export
// ---------------------------------------------------------------------

std::string describe_block(const BlockLineage& b) {
  std::string out = "block " + std::to_string(b.block) + ": ";
  if (b.lost) {
    out += "LOST at " + fmt_t(b.lost_at) + "s (cause: " +
           to_string(classify_loss(b)) + ")";
  } else {
    out += "alive";
  }
  out += ", holders {";
  for (std::size_t i = 0; i < b.holders.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(b.holders[i]);
  }
  out += "}, " + std::to_string(b.steps.size()) + " step(s)";
  if (b.truncated_steps > 0) {
    out += " (+" + std::to_string(b.truncated_steps) + " truncated)";
  }
  out += "\n";
  for (const LineageStep& s : b.steps) {
    out += "  " + fmt_t(s.t) + "s  " + to_string(s.kind);
    switch (s.kind) {
      case LineageStepKind::kPlaced:
        out += " on node " + std::to_string(s.node) + " (replica " +
               std::to_string(s.detail) + ")";
        if (s.v0 > 0.0) {
          // A node with lambda * mu >= 1 quotes E[T] = +inf.
          out += std::isfinite(s.v0) ? " quote " + fmt_t(s.v0) + "s"
                                     : std::string(" quote unbounded");
        }
        break;
      case LineageStepKind::kRereplicated:
      case LineageStepKind::kMigrated:
        out += " to node " + std::to_string(s.node) + " from " +
               endpoint_str(s.detail);
        break;
      case LineageStepKind::kWriteoff:
        out += " node " + std::to_string(s.node);
        if (s.detail != 0) out += " (FALSE POSITIVE: holder was up)";
        break;
      case LineageStepKind::kRestored:
      case LineageStepKind::kTrimmed:
      case LineageStepKind::kCorrupted:
        out += " node " + std::to_string(s.node);
        break;
      case LineageStepKind::kCorruptDropped:
        out += " node " + std::to_string(s.node) + " (caught by " +
               (s.detail == 0   ? "local read"
                : s.detail == 1 ? "remote fetch"
                                : "scanner") +
               ")";
        break;
      case LineageStepKind::kLost:
        out += s.detail != 0 ? " (origin-recoverable)"
                             : " (zero live replicas)";
        break;
      case LineageStepKind::kRepairStart:
      case LineageStepKind::kRepairRetry:
        out += " attempt " + std::to_string(s.detail);
        if (s.kind == LineageStepKind::kRepairStart) {
          out += " to node " + std::to_string(s.node);
        }
        break;
      case LineageStepKind::kRepairGiveup:
        out += " after " + std::to_string(s.detail) + " attempt(s)";
        break;
    }
    out += "\n";
  }
  return out;
}

std::string describe_task(const TaskLineage& t) {
  std::string out = "task " + std::to_string(t.task) + ": ";
  out += t.done ? "done at " + fmt_t(t.done_at) + "s" : "undone";
  out += ", " + std::to_string(t.attempts.size()) + " attempt(s)";
  if (t.truncated_attempts > 0) {
    out += " (+" + std::to_string(t.truncated_attempts) + " truncated)";
  }
  if (t.parks > 0) out += ", parked " + std::to_string(t.parks) + "x";
  out += "\n";
  for (const AttemptNode& a : t.attempts) {
    out += "  " + fmt_t(a.start) + "s  node " + std::to_string(a.node) +
           " src " + endpoint_str(a.src);
    if (a.speculative) out += " [dup]";
    if (a.stalls > 0) {
      out += " stalls " + std::to_string(a.stalls);
    }
    if (a.finished) {
      out += " -> finished at " + fmt_t(a.end) + "s";
    } else if (a.killed) {
      out += " -> killed at " + fmt_t(a.end) + "s (" +
             to_string(a.kill_reason) + ")";
    } else {
      out += " -> open";
    }
    out += "\n";
  }
  return out;
}

std::string post_mortem_text(const LossReport& report) {
  std::string out =
      "loss post-mortem: " + std::to_string(report.total) + " lost block(s)\n";
  for (std::size_t i = 0; i < kLossCauseCount; ++i) {
    out += "  " + std::string(to_string(static_cast<LossCause>(i))) + " " +
           std::to_string(report.counts[i]) + "\n";
  }
  for (const LossPostMortem& pm : report.losses) {
    out += "block " + std::to_string(pm.block) + " lost at " +
           fmt_t(pm.lost_at) + "s: " + to_string(pm.cause) + " (writeoffs " +
           std::to_string(pm.writeoffs) + ", repair attempts " +
           std::to_string(pm.repair_attempts) + ")\n";
  }
  return out;
}

namespace {

void append_block_line(std::string& out, std::uint64_t run,
                       const BlockLineage& b) {
  out += "{\"run\": " + std::to_string(run) +
         ", \"lineage\": \"block\", \"block\": " + std::to_string(b.block) +
         ", \"lost\": " + (b.lost ? "1" : "0");
  if (b.lost) {
    out += ", \"cause\": \"" + std::string(to_string(classify_loss(b))) +
           "\", \"lost_at\": " + json_number(b.lost_at);
  }
  out += ", \"holders\": [";
  for (std::size_t i = 0; i < b.holders.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(b.holders[i]);
  }
  out += "]";
  if (b.truncated_steps > 0) {
    out += ", \"truncated\": " + std::to_string(b.truncated_steps);
  }
  out += ", \"steps\": [";
  for (std::size_t i = 0; i < b.steps.size(); ++i) {
    const LineageStep& s = b.steps[i];
    if (i > 0) out += ", ";
    out += "{\"t\": " + json_number(s.t) + ", \"k\": \"" +
           to_string(s.kind) + "\", \"node\": " + std::to_string(s.node) +
           ", \"detail\": " + endpoint_str(s.detail) +
           ", \"v0\": " + json_number(s.v0) + "}";
  }
  out += "]}\n";
}

void append_task_line(std::string& out, std::uint64_t run,
                      const TaskLineage& t) {
  out += "{\"run\": " + std::to_string(run) +
         ", \"lineage\": \"task\", \"task\": " + std::to_string(t.task) +
         ", \"done\": " + (t.done ? "1" : "0");
  if (t.done) out += ", \"done_at\": " + json_number(t.done_at);
  out += ", \"parks\": " + std::to_string(t.parks);
  if (t.truncated_attempts > 0) {
    out += ", \"truncated\": " + std::to_string(t.truncated_attempts);
  }
  out += ", \"attempts\": [";
  for (std::size_t i = 0; i < t.attempts.size(); ++i) {
    const AttemptNode& a = t.attempts[i];
    if (i > 0) out += ", ";
    out += "{\"t0\": " + json_number(a.start) +
           ", \"t1\": " + json_number(a.end) + ", \"node\": " +
           std::to_string(a.node) + ", \"src\": " + endpoint_str(a.src) +
           ", \"spec\": " + (a.speculative ? "1" : "0") +
           ", \"outcome\": \"" +
           (a.finished ? "finished" : a.killed ? "killed" : "open") + "\"";
    if (a.killed) {
      out += ", \"reason\": \"" + std::string(to_string(a.kill_reason)) +
             "\"";
    }
    out += ", \"stalls\": " + std::to_string(a.stalls) + "}";
  }
  out += "]}\n";
}

}  // namespace

std::string lineage_to_jsonl(const std::vector<RunObservations>& runs) {
  std::string out;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    LineageSnapshot rebuilt;
    const LineageSnapshot* snapshot = runs[run].lineage.get();
    if (snapshot == nullptr) {
      rebuilt = build_lineage(runs[run].records);
      snapshot = &rebuilt;
    }
    const LossReport report = post_mortem(*snapshot);
    out += "{\"run\": " + std::to_string(run) +
           ", \"lineage\": \"summary\", \"blocks\": " +
           std::to_string(snapshot->blocks.size()) +
           ", \"tasks\": " + std::to_string(snapshot->tasks.size()) +
           ", \"lost\": " + std::to_string(report.total) +
           ", \"elapsed\": " + json_number(snapshot->elapsed) +
           ", \"records\": " + std::to_string(snapshot->records_seen) +
           "}\n";
    for (const BlockLineage& b : snapshot->blocks) {
      append_block_line(out, run, b);
    }
    for (const TaskLineage& t : snapshot->tasks) {
      append_task_line(out, run, t);
    }
  }
  return out;
}

void write_lineage_jsonl(const std::string& path,
                         const std::vector<RunObservations>& runs) {
  common::write_file(path, lineage_to_jsonl(runs));
}

}  // namespace adapt::obs
