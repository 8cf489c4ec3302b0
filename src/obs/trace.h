// Structured event tracer for the simulator: a ring buffer of typed
// records covering the full task/node/transfer lifecycle, with a JSONL
// export that is byte-identical across `--threads` values.
//
// Determinism contract (same as runner::Report): each simulation run is
// single-threaded and records events in event-queue order; each run owns
// its own tracer; the caller concatenates runs in job-index order; the
// serializer uses fixed per-type key order and "%.17g" doubles. Two
// invocations with the same seed therefore produce byte-identical trace
// files no matter how runs were scheduled across worker threads. One
// table in trace.cpp defines each event type's name and JSONL keys; the
// writer, the parser and to_string(EventType) all read it.
//
// The disabled path is near-zero cost: instrumented code holds a tracer
// pointer that is null when tracing is off, so every site is a single
// predictable branch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/calibration.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace adapt::obs {

enum class EventType : std::uint8_t {
  kPlacement,        // replica placement decision during a load
  kJobStart,         // map phase begins (node/task counts)
  kNodeDown,         // interruption begins
  kNodeUp,           // interruption ends
  kAttemptStart,     // a node starts executing or fetching
  kAttemptFinish,    // winning attempt completed (aux = kind)
  kAttemptKill,      // attempt killed (reason set)
  kTransferRequest,  // block fetch reserved on the network
  kTransferStall,    // source outage paused an in-flight fetch
  kTransferResume,   // source returned; fetch end shifted (v0 = new end)
  kTransferAbort,    // fetch aborted (reason set, v0 = reclaimed share)
  kTaskPark,         // all replicas offline; task parked as stalled
  kTaskRevive,       // a replica holder returned; task fetchable again
  kJobEnd,           // map phase done (t = elapsed)
  // -- churn & recovery --
  kNodeDead,            // declared dead after dead-timeout (aux = replicas lost)
  kReplicaLost,         // a block dropped to zero live replicas (aux = recoverable)
  kRereplicationStart,  // re-replication transfer reserved (aux = attempt#)
  kRereplicationDone,   // re-replication transfer landed (v0 = bytes)
  kRereplicationRetry,  // transfer failed; backing off (v0 = next try)
  kRereplicationGiveup, // retry budget exhausted (aux = attempts)
  // -- calibration --
  kPredictorDrift,      // CUSUM alarm: estimate departed from ground
                        // truth (v0 = score, v1 = detection latency or -1)
  // -- online rebalancing --
  kRebalanceTrigger,    // drift alarms tripped a rebalance pass
                        // (task = moves submitted, aux = alarms)
  kMigrationStart,      // migration transfer reserved (aux = attempt#)
  kMigrationCommit,     // migration landed; metadata flipped (v0 = bytes)
  kMigrationRetry,      // migration failed; backing off (v0 = next try)
  kMigrationGiveup,     // migration retry budget exhausted (aux = attempts)
  // -- gray failures --
  kPartitionStart,      // control-plane partition begins (aux = nodes cut)
  kPartitionHeal,       // partition heals (aux = nodes restored)
  kStragglerStart,      // degraded mode begins (v0 = slow factor)
  kStragglerEnd,        // degraded mode ends
  kReplicaCorrupt,      // bitrot: replica silently corrupted (task = block)
  kCorruptRead,         // checksum caught a corrupt replica (aux = path:
                        // 0 local read, 1 remote fetch, 2 scanner)
  kSafeModeEnter,       // mass-death heuristic tripped (aux = deferred,
                        // v0 = believed-dead fraction)
  kSafeModeExit,        // hold expired or healed (task = write-offs
                        // applied, aux = 1 when healed with no write-off)
  kNodeRevived,         // false-positive dead declaration undone by a
                        // heartbeat (task = replicas restored,
                        // aux = stale replicas trimmed)
  // -- scheduler policies --
  kRedundantWaste,      // losing duplicate's fetch bytes written off
                        // when a sibling won (v0 = wasted bytes)
  // -- per-replica churn detail (lineage) --
  kReplicaWriteoff,     // a dead-declared holder's copy was dropped
                        // (task = block, node = holder, aux = 1 when the
                        // holder was actually up — false positive)
  kReplicaRestore,      // revive block report re-registered a copy
                        // (task = block, node = holder)
  kReplicaTrim,         // revive-time over-replica discarded
                        // (task = block, node = holder)
};
inline constexpr std::size_t kEventTypeCount = 39;

// Why an attempt/transfer was killed; mirrors the simulator's kill paths.
enum class TraceReason : std::uint8_t {
  kNone,
  kNodeDown,        // hosting node went down
  kSourceTimeout,   // source outage outlived the stall timeout
  kRedundant,       // another attempt won the task
  kChecksum,        // read returned corrupt data (bitrot caught)
};

const char* to_string(EventType type);
const char* to_string(TraceReason reason);

// One fixed-size record; field meaning depends on `type` (the schema
// table in trace.cpp maps each field to its JSONL key). Unused fields
// stay zero.
struct TraceRecord {
  common::Seconds t = 0.0;
  EventType type = EventType::kJobStart;
  TraceReason reason = TraceReason::kNone;
  std::uint32_t node = 0;    // acting node: destination / transitioning
  std::uint32_t peer = 0;    // transfer source (kOriginEndpoint = origin)
  std::uint32_t task = 0;    // task == block index within the job's file
  std::uint32_t aux = 0;     // replica index / spec flag / kind / count
  std::uint64_t ticket = 0;  // network reservation ticket
  double v0 = 0.0;           // grant start / new end / reclaimed share
  double v1 = 0.0;           // grant end
};

// Streaming observer: sees every record at record() time, before the
// ring can overwrite it. This is how accumulating consumers (the
// lineage index) stay exact when the ring is smaller than the run.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void observe(const TraceRecord& r) = 0;
};

// Bounded ring: overwrites the oldest record when full and counts the
// overwritten records, so a too-small buffer is detectable rather than
// silently misleading.
class EventTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  explicit EventTracer(std::size_t capacity = kDefaultCapacity);

  // Attach a streaming observer (nullptr detaches). Not owned; must
  // outlive the tracer or be detached first.
  void set_sink(TraceSink* sink) { sink_ = sink; }

  void record(const TraceRecord& r);

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(ring_.size());
  }

  // The retained records in chronological (insertion) order.
  std::vector<TraceRecord> take_records();

 private:
  std::vector<TraceRecord> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next overwrite position once wrapped
  std::uint64_t recorded_ = 0;
  TraceSink* sink_ = nullptr;
};

// Built by obs::LineageIndex (obs/lineage.h); forward-declared here so
// RunObservations can carry one without an include cycle.
struct LineageSnapshot;

// What one instrumented run hands back to its caller.
struct RunObservations {
  std::vector<TraceRecord> records;
  std::uint64_t dropped = 0;
  MetricsSnapshot metrics;
  std::vector<SpanRecord> spans;
  TimeSeriesSnapshot timeseries;
  CalibrationSnapshot calibration;
  // Present when Options::lineage was set; exact even when the ring
  // overwrote (the index streams from the tracer, not the ring).
  std::shared_ptr<const LineageSnapshot> lineage;

  bool empty() const {
    return records.empty() && metrics.empty() && spans.empty() &&
           timeseries.empty() && calibration.empty() && lineage == nullptr;
  }
};

// Observability knobs carried by experiment configs. Everything is off
// by default; enabling costs one owned tracer/registry per run.
struct Options {
  bool trace = false;    // collect trace records
  bool metrics = false;  // collect metrics
  bool spans = false;    // collect profiler spans
  bool span_host = false;  // include (nondeterministic) host time in exports
  bool lineage = false;  // build the causal lineage index (obs/lineage.h)
  common::Seconds sample_dt = 0.0;  // >0: sample metric time-series
  CalibrationOptions calibration;   // prediction calibration / drift
  std::size_t ring_capacity = EventTracer::kDefaultCapacity;

  bool enabled() const {
    return trace || metrics || spans || lineage || sample_dt > 0.0 ||
           calibration.enabled;
  }
};

// One record as a JSONL line (no trailing newline), prefixed with the
// run index: {"run": 3, "t": ..., "ev": "...", ...}.
void append_jsonl(std::string& out, std::uint64_t run_index,
                  const TraceRecord& r);

// Serialize runs in index order; emits a {"ev": "dropped"} marker line
// for any run whose ring overflowed.
std::string to_jsonl(const std::vector<RunObservations>& runs);

// Write to_jsonl(runs) to `path`; throws std::runtime_error on failure.
void write_jsonl(const std::string& path,
                 const std::vector<RunObservations>& runs);

// Parse JSONL produced by to_jsonl back into per-run record lists,
// indexed by run. {"ev": "dropped"} marker lines set the run's dropped
// count; keys a line lacks leave their record fields zero. Throws
// std::runtime_error on malformed input.
std::vector<RunObservations> parse_jsonl(const std::string& text);

// Span stream, one JSONL line per closed span in close order:
// {"run": N, "span": "...", "depth": D, "t0": ..., "dur": ...,
//  "self": ...} — plus "host_ns"/"host_self_ns" when `include_host`
// (host time is nondeterministic, so CI byte-compares leave it off).
std::string spans_to_jsonl(const std::vector<RunObservations>& runs,
                           bool include_host);
void write_spans_jsonl(const std::string& path,
                       const std::vector<RunObservations>& runs,
                       bool include_host);

// Parse a span stream produced by spans_to_jsonl back into per-run span
// lists, indexed by run. Host-time fields parse when present and stay
// zero otherwise. Throws std::runtime_error on malformed input.
std::vector<std::vector<SpanRecord>> parse_spans_jsonl(
    const std::string& text);

// Time-series stream, one JSONL line per sample:
// {"run": N, "t": ..., "series": {"name": value, ...}} (name-sorted).
std::string timeseries_to_jsonl(const std::vector<RunObservations>& runs);
void write_timeseries_jsonl(const std::string& path,
                            const std::vector<RunObservations>& runs);

}  // namespace adapt::obs
