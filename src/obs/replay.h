// Trace replay: reconstruct per-node timelines and job-level accounting
// from a recorded event stream, independently of the simulator.
//
// The replayer re-derives the paper's "recovery" overhead (node downtime
// while the node still holds undone home tasks) from nothing but
// placement decisions, node up/down transitions and attempt completions
// — so a trace can be audited against JobResult without trusting the
// simulator's own bookkeeping. Used by the trace_inspect example and the
// observability tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace adapt::obs {

// Per-node totals over one replayed run.
struct NodeTotals {
  std::uint64_t transitions = 0;      // down + up events
  std::uint64_t attempts = 0;         // attempts started here
  common::Seconds downtime = 0.0;     // clipped to [0, elapsed]
  common::Seconds busy = 0.0;         // >= 1 attempt ran here
};

struct ReplaySummary {
  std::size_t node_count = 0;
  std::uint64_t task_count = 0;
  common::Seconds elapsed = 0.0;

  std::vector<std::uint64_t> event_counts;  // indexed by EventType
  std::vector<NodeTotals> nodes;

  common::Seconds total_downtime = 0.0;
  common::Seconds total_busy = 0.0;
  // Downtime while the node still had undone home tasks, in
  // node-seconds — the trace-derived equivalent of
  // JobResult::overhead.recovery.
  double recovery_node_seconds = 0.0;

  // Payload sums and filtered counts; plain per-type counts are
  // count(EventType). All zero when the trace has no such events.
  double rereplication_bytes = 0.0;         // bytes moved by recovery
  double migration_bytes = 0.0;             // bytes moved by rebalancing
  std::uint64_t corrupt_reads_scan = 0;     // checksum catches by the scanner
  std::uint64_t safe_mode_healed = 0;       // exits with no write-off
  std::uint64_t safe_mode_writeoffs = 0;    // deferred write-offs applied
  std::uint64_t revived_replicas_restored = 0;  // on node_revived
  std::uint64_t revived_replicas_trimmed = 0;

  // Scheduling accounting (zero with the baseline scheduler when no
  // duplicates were launched). The trace marks duplicate attempts but
  // not which policy launched them, so these aggregate speculative and
  // redundant copies alike.
  std::uint64_t duplicate_launches = 0;     // attempt_start with dup mark
  std::uint64_t duplicate_wins = 0;         // finishes by a duplicate copy
  std::uint64_t redundant_cancels = 0;      // attempt_kill reason=redundant
  double redundant_waste_bytes = 0.0;       // redundant_waste bytes summed

  std::uint64_t count(EventType type) const {
    return event_counts[static_cast<std::size_t>(type)];
  }
};

// Replay one run's records (in recorded order).
ReplaySummary replay(const std::vector<TraceRecord>& records);

// Per-phase span totals: fold a run's span records by name.
struct PhaseTotals {
  std::string name;
  std::uint64_t count = 0;
  common::Seconds dur_sim = 0.0;   // summed span durations
  common::Seconds self_sim = 0.0;  // summed self-times (no double count)
};

// Aggregate spans by name, sorted by name — the per-phase self-time
// table trace_inspect prints.
std::vector<PhaseTotals> fold_spans(const std::vector<SpanRecord>& spans);

}  // namespace adapt::obs
