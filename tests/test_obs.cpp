// Observability subsystem: metrics registry semantics, tracer ring
// behavior, JSONL round-trip, trace replay audited against the
// simulator's own accounting, and the byte-identical export contract
// across worker-thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "core/adapt.h"
#include "obs/metrics.h"
#include "obs/replay.h"
#include "obs/trace.h"
#include "runner/runner.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

TEST(Metrics, CountersGaugesAccumulate) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("b.count");
  const auto g = reg.gauge("a.gauge");
  reg.add(c);
  reg.add(c, 2.5);
  reg.set(g, 7.0);
  reg.set(g, 3.0);  // set overwrites; merge (not set) keeps maxima
  EXPECT_EQ(reg.counter("b.count"), c);  // re-registration is idempotent
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.counters[0].second, 3.5);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.0);
}

TEST(Metrics, HistogramBucketsObservations) {
  obs::MetricsRegistry reg;
  const auto h = reg.histogram(
      "lat", obs::MetricsRegistry::exponential_bounds(1.0, 2.0, 3));
  // bounds {1, 2, 4}: four buckets (<=1, <=2, <=4, overflow).
  reg.observe(h, 0.5);
  reg.observe(h, 1.0);  // lower_bound: lands in the <=1 bucket
  reg.observe(h, 3.0);
  reg.observe(h, 100.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramSnapshot& hist = snap.histograms[0];
  ASSERT_EQ(hist.counts.size(), 4u);
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 0u);
  EXPECT_EQ(hist.counts[2], 1u);
  EXPECT_EQ(hist.counts[3], 1u);
  EXPECT_EQ(hist.total, 4u);
  EXPECT_DOUBLE_EQ(hist.sum, 104.5);
}

TEST(Metrics, SnapshotSortsByName) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("z.last"));
  reg.add(reg.counter("a.first"));
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "z.last");
}

TEST(Metrics, MergeSumsCountersMaxesGauges) {
  obs::MetricsRegistry a;
  a.add(a.counter("runs"), 1.0);
  a.set(a.gauge("elapsed"), 10.0);
  obs::MetricsRegistry b;
  b.add(b.counter("runs"), 1.0);
  b.add(b.counter("only_b"), 4.0);
  b.set(b.gauge("elapsed"), 25.0);
  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].first, "only_b");
  EXPECT_DOUBLE_EQ(merged.counters[0].second, 4.0);
  EXPECT_DOUBLE_EQ(merged.counters[1].second, 2.0);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].second, 25.0);
}

TEST(Metrics, MergeRejectsMismatchedHistogramLayouts) {
  obs::MetricsRegistry a;
  a.observe(a.histogram("h", {1.0, 2.0}), 1.5);
  obs::MetricsRegistry b;
  b.observe(b.histogram("h", {1.0, 3.0}), 1.5);
  obs::MetricsSnapshot merged = a.snapshot();
  EXPECT_THROW(merged.merge(b.snapshot()), std::invalid_argument);
}

TEST(Metrics, ExponentialBoundsValidated) {
  EXPECT_THROW(obs::MetricsRegistry::exponential_bounds(0.0, 2.0, 4),
               std::invalid_argument);
  EXPECT_THROW(obs::MetricsRegistry::exponential_bounds(1.0, 1.0, 4),
               std::invalid_argument);
}

TEST(Metrics, MergeMaxesNegativeGauges) {
  // Gauge merge takes the maximum; that must hold below zero too (a
  // gauge of -2 beats -5, and merging must not treat 0 as a floor).
  obs::MetricsRegistry a;
  a.set(a.gauge("depth"), -5.0);
  obs::MetricsRegistry b;
  b.set(b.gauge("depth"), -2.0);
  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].second, -2.0);
}

TEST(Metrics, MergeEmptyWithNonEmpty) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("n"), 3.0);
  reg.observe(reg.histogram("h", {1.0, 2.0}), 1.5);

  obs::MetricsSnapshot empty_lhs;  // default-constructed: no series
  empty_lhs.merge(reg.snapshot());
  ASSERT_EQ(empty_lhs.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(empty_lhs.counters[0].second, 3.0);
  ASSERT_EQ(empty_lhs.histograms.size(), 1u);
  EXPECT_EQ(empty_lhs.histograms[0].total, 1u);

  obs::MetricsSnapshot nonempty = reg.snapshot();
  nonempty.merge(obs::MetricsSnapshot{});  // absorbing empty is a no-op
  ASSERT_EQ(nonempty.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(nonempty.counters[0].second, 3.0);
  EXPECT_EQ(nonempty.histograms[0].total, 1u);
}

TEST(Metrics, LogBoundsSpacing) {
  const std::vector<double> bounds =
      obs::MetricsRegistry::log_bounds(8.0, 8192.0, 21);
  ASSERT_EQ(bounds.size(), 21u);
  EXPECT_DOUBLE_EQ(bounds.front(), 8.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 8192.0);  // endpoint exact, not pow-drift
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    // Log-spaced: constant ratio between consecutive bounds.
    EXPECT_NEAR(bounds[i] / bounds[i - 1], std::pow(1024.0, 1.0 / 20.0),
                1e-9);
  }
  EXPECT_THROW(obs::MetricsRegistry::log_bounds(0.0, 10.0, 4),
               std::invalid_argument);
  EXPECT_THROW(obs::MetricsRegistry::log_bounds(10.0, 10.0, 4),
               std::invalid_argument);
  EXPECT_THROW(obs::MetricsRegistry::log_bounds(1.0, 10.0, 1),
               std::invalid_argument);
}

TEST(Metrics, TimeSeriesAlignsLateRegisteredSeries) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("b.count");
  reg.add(c, 2.0);
  reg.sample(10.0);
  const auto g = reg.gauge("a.late");  // registered after the 1st sample
  reg.set(g, 7.0);
  reg.add(c);
  reg.sample(20.0);

  const obs::TimeSeriesSnapshot ts = reg.take_timeseries();
  ASSERT_EQ(ts.times.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.times[0], 10.0);
  EXPECT_DOUBLE_EQ(ts.times[1], 20.0);
  ASSERT_EQ(ts.series.size(), 2u);  // name-sorted columns
  EXPECT_EQ(ts.series[0].first, "a.late");
  ASSERT_EQ(ts.series[0].second.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.series[0].second[0], 0.0);  // padded before birth
  EXPECT_DOUBLE_EQ(ts.series[0].second[1], 7.0);
  EXPECT_EQ(ts.series[1].first, "b.count");
  EXPECT_DOUBLE_EQ(ts.series[1].second[0], 2.0);
  EXPECT_DOUBLE_EQ(ts.series[1].second[1], 3.0);

  // take_timeseries drains.
  EXPECT_TRUE(reg.take_timeseries().empty());
}

TEST(Metrics, TimeSeriesJsonlRoundsTrips) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("n"), 1.0);
  reg.sample(5.0);
  obs::RunObservations run;
  run.timeseries = reg.take_timeseries();
  const std::string jsonl = obs::timeseries_to_jsonl({run});
  EXPECT_EQ(jsonl,
            "{\"run\": 0, \"t\": 5, \"series\": {\"n\": 1}}\n");
}

TEST(Tracer, RingOverflowKeepsNewestAndCountsDrops) {
  obs::EventTracer tracer(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    obs::TraceRecord r;
    r.t = static_cast<double>(i);
    r.type = obs::EventType::kAttemptStart;
    r.task = i;
    tracer.record(r);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<obs::TraceRecord> records = tracer.take_records();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].task, 6u + i);  // oldest-to-newest survivors
  }
}

// What to_jsonl writes for the records the test below builds.
constexpr const char* kEveryEventTypeJsonl = R"jsonl({"run": 0, "t": 0.33333333333333331, "ev": "placement", "block": 1000, "replica": 0, "node": 17}
{"run": 0, "t": 0.58333333333333326, "ev": "node_down", "node": 19}
{"run": 0, "t": 0.83333333333333326, "ev": "attempt_start", "task": 1004, "node": 21, "src": -1, "spec": 1, "ticket": 75}
{"run": 0, "t": 1.0833333333333333, "ev": "attempt_kill", "task": 1006, "node": 23, "reason": "source_timeout"}
{"run": 0, "t": 1.3333333333333333, "ev": "transfer_stall", "task": 1008, "src": -1, "ticket": 79}
{"run": 0, "t": 1.5833333333333333, "ev": "transfer_abort", "task": 1010, "src": -1, "ticket": 81, "reason": "source_timeout", "reclaimed": 8.5}
{"run": 0, "t": 1.8333333333333333, "ev": "task_revive", "task": 1012, "node": 29}
{"run": 0, "t": 2.0833333333333335, "ev": "node_dead", "node": 31, "replicas": 2}
{"run": 0, "t": 2.3333333333333335, "ev": "rereplication_start", "block": 1016, "src": -1, "dst": 33, "ticket": 87, "attempt": 1, "start": 14.5, "end": 1000000002.2857143}
{"run": 0, "t": 2.5833333333333335, "ev": "rereplication_retry", "block": 1018, "reason": "source_timeout", "attempt": 0, "next": 16.5}
{"run": 0, "t": 2.8333333333333335, "ev": "predictor_drift", "node": 37, "score": 18.5, "latency": 1000000002.8571428}
{"run": 0, "t": 3.0833333333333335, "ev": "migration_start", "block": 1022, "src": -1, "dst": 39, "ticket": 93, "attempt": 1, "start": 20.5, "end": 1000000003.1428572}
{"run": 0, "t": 3.3333333333333335, "ev": "migration_retry", "block": 1024, "reason": "source_timeout", "attempt": 0, "next": 22.5}
{"run": 0, "t": 3.5833333333333335, "ev": "partition_start", "nodes": 2}
{"run": 0, "t": 3.8333333333333335, "ev": "straggler_start", "node": 45, "slow": 26.5}
{"run": 0, "t": 4.083333333333333, "ev": "replica_corrupt", "block": 1030, "node": 47}
{"run": 0, "t": 4.333333333333333, "ev": "safe_mode_enter", "deferred": 2, "fraction": 30.5}
{"run": 0, "t": 4.583333333333333, "ev": "node_revived", "node": 51, "restored": 1034, "trimmed": 1}
{"run": 0, "t": 4.833333333333333, "ev": "replica_writeoff", "block": 1036, "node": 53, "false_positive": 0}
{"run": 0, "t": 5.083333333333333, "ev": "replica_trim", "block": 1038, "node": 55}
{"run": 0, "t": 40, "ev": "placement", "block": 7, "replica": 2, "node": 5, "quote": 1.7142857142857142}
{"run": 0, "t": 40.5, "ev": "placement", "block": 8, "replica": 1, "node": 6, "quote": null}
{"run": 1, "t": 0.45833333333333331, "ev": "job_start", "nodes": 18, "tasks": 1001}
{"run": 1, "t": 0.70833333333333326, "ev": "node_up", "node": 20}
{"run": 1, "t": 0.95833333333333326, "ev": "attempt_finish", "task": 1005, "node": 22, "kind": "origin"}
{"run": 1, "t": 1.2083333333333333, "ev": "transfer_request", "task": 1007, "src": 7, "dst": 24, "ticket": 78, "start": 5.5, "end": 1000000001}
{"run": 1, "t": 1.4583333333333333, "ev": "transfer_resume", "task": 1009, "src": 9, "ticket": 80, "end": 7.5}
{"run": 1, "t": 1.7083333333333333, "ev": "task_park", "task": 1011}
{"run": 1, "t": 1.9583333333333333, "ev": "job_end", "tasks": 1013}
{"run": 1, "t": 2.2083333333333335, "ev": "replica_lost", "block": 1015, "recoverable": 0}
{"run": 1, "t": 2.4583333333333335, "ev": "rereplication_done", "block": 1017, "src": 17, "dst": 34, "ticket": 88, "bytes": 15.5}
{"run": 1, "t": 2.7083333333333335, "ev": "rereplication_giveup", "block": 1019, "attempts": 1}
{"run": 1, "t": 2.9583333333333335, "ev": "rebalance_trigger", "moves": 1021, "alarms": 0}
{"run": 1, "t": 3.2083333333333335, "ev": "migration_commit", "block": 1023, "src": 23, "dst": 40, "ticket": 94, "bytes": 21.5}
{"run": 1, "t": 3.4583333333333335, "ev": "migration_giveup", "block": 1025, "attempts": 1}
{"run": 1, "t": 3.7083333333333335, "ev": "partition_heal", "nodes": 0}
{"run": 1, "t": 3.9583333333333335, "ev": "straggler_end", "node": 46}
{"run": 1, "t": 4.208333333333333, "ev": "corrupt_read", "block": 1031, "node": 48, "path": "remote"}
{"run": 1, "t": 4.458333333333333, "ev": "safe_mode_exit", "writeoffs": 1033, "healed": 0}
{"run": 1, "t": 4.708333333333333, "ev": "redundant_waste", "task": 1035, "node": 52, "bytes": 33.5}
{"run": 1, "t": 4.958333333333333, "ev": "replica_restore", "block": 1037, "node": 54}
{"run": 1, "t": 41, "ev": "attempt_finish", "task": 9, "node": 3, "kind": "local"}
{"run": 1, "t": 41, "ev": "corrupt_read", "block": 9, "node": 3, "path": "local"}
{"run": 1, "t": 42, "ev": "attempt_finish", "task": 9, "node": 3, "kind": "remote"}
{"run": 1, "t": 42, "ev": "corrupt_read", "block": 9, "node": 3, "path": "remote"}
{"run": 1, "t": 43, "ev": "attempt_finish", "task": 9, "node": 3, "kind": "origin"}
{"run": 1, "t": 43, "ev": "corrupt_read", "block": 9, "node": 3, "path": "scan"}
)jsonl";

TEST(Trace, JsonlRoundTripsEveryEventType) {
  // One record per event type, with distinctive field values; the
  // parser must reproduce every serialized field bit-for-bit.
  std::vector<obs::RunObservations> runs(2);
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    obs::TraceRecord r;
    r.t = 0.125 * static_cast<double>(i) + 1.0 / 3.0;
    r.type = static_cast<obs::EventType>(i);
    r.reason = obs::TraceReason::kSourceTimeout;
    r.node = 17 + static_cast<std::uint32_t>(i);
    r.peer = (i % 2 == 0) ? cluster::kOriginEndpoint
                          : static_cast<std::uint32_t>(i);
    r.task = 1000 + static_cast<std::uint32_t>(i);
    r.aux = static_cast<std::uint32_t>(i % 3);
    r.ticket = 71 + i;
    r.v0 = -1.5 + static_cast<double>(i);
    r.v1 = 1e9 + static_cast<double>(i) / 7.0;
    runs[i % 2].records.push_back(r);
  }
  // What one record per type cannot reach: a placement quote (written
  // only when positive; +inf, for a node with lambda * mu >= 1, is
  // written as null) and every attempt_finish kind / corrupt_read path.
  obs::TraceRecord quoted;
  quoted.t = 40.0;
  quoted.type = obs::EventType::kPlacement;
  quoted.task = 7;
  quoted.aux = 2;
  quoted.node = 5;
  quoted.v0 = 12.0 / 7.0;
  runs[0].records.push_back(quoted);
  obs::TraceRecord unstable = quoted;
  unstable.t = 40.5;
  unstable.task = 8;
  unstable.aux = 1;
  unstable.node = 6;
  unstable.v0 = std::numeric_limits<double>::infinity();
  runs[0].records.push_back(unstable);
  for (std::uint32_t aux = 0; aux < 3; ++aux) {
    for (const obs::EventType type :
         {obs::EventType::kAttemptFinish, obs::EventType::kCorruptRead}) {
      obs::TraceRecord r;
      r.t = 41.0 + aux;
      r.type = type;
      r.task = 9;
      r.node = 3;
      r.aux = aux;
      runs[1].records.push_back(r);
    }
  }
  const std::string jsonl = obs::to_jsonl(runs);
  // The writer's bytes for every event type and codec value, pinned.
  EXPECT_EQ(jsonl, kEveryEventTypeJsonl);
  const std::vector<obs::RunObservations> parsed = obs::parse_jsonl(jsonl);
  // Round-trip must be lossless for every serialized field, which we
  // check by re-serializing: byte-identical JSONL implies field-identical
  // records for all fields each event type carries.
  EXPECT_EQ(obs::to_jsonl(parsed), jsonl);
  ASSERT_EQ(parsed.size(), runs.size());
  for (std::size_t run = 0; run < runs.size(); ++run) {
    ASSERT_EQ(parsed[run].records.size(), runs[run].records.size());
    for (std::size_t i = 0; i < runs[run].records.size(); ++i) {
      EXPECT_EQ(parsed[run].records[i].type, runs[run].records[i].type);
      EXPECT_EQ(parsed[run].records[i].t, runs[run].records[i].t);
    }
  }

  // Traces written while node_down still carried "slots" must load, to
  // the record the same line without the key gives.
  const auto parse_one = [](const std::string& text) {
    const std::vector<obs::RunObservations> one =
        obs::parse_jsonl(text + "\n");
    EXPECT_EQ(one.size(), 1u);
    EXPECT_EQ(one.at(0).records.size(), 1u);
    return one.at(0).records.at(0);
  };
  const std::string line =
      R"({"run": 0, "t": 2.5, "ev": "node_down", "node": 19)";
  const obs::TraceRecord old_line = parse_one(line + R"(, "slots": 1})");
  const obs::TraceRecord new_line = parse_one(line + "}");
  EXPECT_EQ(old_line.type, obs::EventType::kNodeDown);
  EXPECT_EQ(old_line.node, 19u);
  EXPECT_EQ(old_line.t, new_line.t);
  EXPECT_EQ(old_line.type, new_line.type);
  EXPECT_EQ(old_line.reason, new_line.reason);
  EXPECT_EQ(old_line.node, new_line.node);
  EXPECT_EQ(old_line.peer, new_line.peer);
  EXPECT_EQ(old_line.task, new_line.task);
  EXPECT_EQ(old_line.aux, new_line.aux);
  EXPECT_EQ(old_line.ticket, new_line.ticket);
  EXPECT_EQ(old_line.v0, new_line.v0);
  EXPECT_EQ(old_line.v1, new_line.v1);
}

TEST(Trace, DroppedMarkerRoundTrips) {
  std::vector<obs::RunObservations> runs(1);
  obs::TraceRecord r;
  r.type = obs::EventType::kJobStart;
  runs[0].records.push_back(r);
  runs[0].dropped = 42;
  const std::string jsonl = obs::to_jsonl(runs);
  const std::vector<obs::RunObservations> parsed = obs::parse_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].dropped, 42u);
  EXPECT_EQ(parsed[0].records.size(), 1u);
}

TEST(Trace, ParserRejectsMalformedLines) {
  EXPECT_THROW(obs::parse_jsonl("not json\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_jsonl("{\"run\": 0, \"t\": 1.0, \"ev\": \"nope\"}\n"),
               std::runtime_error);
}

TEST(Trace, GrayFailureEventsRoundTripThroughReplay) {
  // The gray-failure record types must survive serialize → parse →
  // replay with their summary counters intact, including the
  // per-replica write-off/restore/trim detail records.
  const auto rec = [](double t, obs::EventType type, std::uint32_t task,
                      std::uint32_t node, std::uint32_t aux) {
    obs::TraceRecord r;
    r.t = t;
    r.type = type;
    r.task = task;
    r.node = node;
    r.aux = aux;
    return r;
  };
  std::vector<obs::RunObservations> runs(1);
  std::vector<obs::TraceRecord>& rs = runs[0].records;
  rs.push_back(rec(1.0, obs::EventType::kPartitionStart, 0, 0, 5));
  rs.push_back(rec(2.0, obs::EventType::kStragglerStart, 0, 3, 0));
  rs.push_back(rec(3.0, obs::EventType::kReplicaCorrupt, 9, 2, 0));
  rs.push_back(rec(4.0, obs::EventType::kCorruptRead, 9, 2, /*scan=*/2));
  rs.push_back(rec(5.0, obs::EventType::kSafeModeEnter, 0, 0, 4));
  rs.push_back(rec(6.0, obs::EventType::kReplicaWriteoff, 9, 2, 1));
  rs.push_back(rec(7.0, obs::EventType::kReplicaRestore, 9, 2, 0));
  rs.push_back(rec(7.0, obs::EventType::kReplicaTrim, 9, 4, 0));
  rs.push_back(rec(8.0, obs::EventType::kSafeModeExit, 2, 0, 0));
  rs.push_back(rec(9.0, obs::EventType::kStragglerEnd, 0, 3, 0));
  rs.push_back(rec(10.0, obs::EventType::kPartitionHeal, 0, 0, 5));

  const std::string jsonl = obs::to_jsonl(runs);
  const std::vector<obs::RunObservations> parsed = obs::parse_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].records.size(), rs.size());
  EXPECT_EQ(obs::to_jsonl(parsed), jsonl);

  const obs::ReplaySummary summary = obs::replay(parsed[0].records);
  EXPECT_EQ(summary.count(obs::EventType::kPartitionStart), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kPartitionHeal), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kStragglerStart), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kReplicaCorrupt), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kCorruptRead), 1u);
  EXPECT_EQ(summary.corrupt_reads_scan, 1u);
  EXPECT_EQ(summary.count(obs::EventType::kSafeModeEnter), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kSafeModeExit), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kReplicaWriteoff), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kReplicaRestore), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kReplicaTrim), 1u);

  // The parsed write-off keeps its false-positive marker bit.
  const obs::TraceRecord& writeoff = parsed[0].records[5];
  ASSERT_EQ(writeoff.type, obs::EventType::kReplicaWriteoff);
  EXPECT_EQ(writeoff.aux, 1u);
  EXPECT_EQ(writeoff.task, 9u);
  EXPECT_EQ(writeoff.node, 2u);
}

core::ExperimentConfig traced_config(const cluster::Cluster& cl,
                                     std::uint64_t seed) {
  const workload::Workload w = workload::emulation_workload();
  core::ExperimentConfig config;
  config.blocks = w.blocks_for(cl.size());
  config.job.gamma = w.gamma();
  config.policy = core::PolicyKind::kAdapt;
  config.replication = 1;
  config.seed = seed;
  config.obs.trace = true;
  config.obs.metrics = true;
  return config;
}

TEST(Obs, ExperimentCollectsTraceAndMetrics) {
  cluster::EmulationConfig emu;
  emu.node_count = 32;
  emu.interrupted_ratio = 0.5;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  const core::ExperimentConfig config = traced_config(cl, 3);
  const core::ExperimentResult result = core::run_experiment(cl, config);

  ASSERT_FALSE(result.obs.records.empty());
  EXPECT_EQ(result.obs.dropped, 0u);
  const obs::ReplaySummary summary = obs::replay(result.obs.records);
  // Every (block, replica) yields a placement; every task finishes once.
  EXPECT_EQ(summary.count(obs::EventType::kPlacement),
            static_cast<std::uint64_t>(config.blocks));
  EXPECT_EQ(summary.count(obs::EventType::kJobStart), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kJobEnd), 1u);
  EXPECT_EQ(summary.count(obs::EventType::kAttemptFinish),
            static_cast<std::uint64_t>(config.blocks));
  EXPECT_EQ(summary.count(obs::EventType::kAttemptStart),
            result.job.attempts_started);
  EXPECT_EQ(summary.count(obs::EventType::kTransferRequest),
            result.job.transfers_started);
  EXPECT_EQ(summary.count(obs::EventType::kTransferAbort),
            result.job.transfers_aborted);
  EXPECT_DOUBLE_EQ(summary.elapsed, result.job.elapsed);

  // Metrics mirror the JobResult counters.
  bool found = false;
  for (const auto& [name, value] : result.obs.metrics.counters) {
    if (name == "sim.tasks") {
      EXPECT_DOUBLE_EQ(value, static_cast<double>(result.job.tasks));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Obs, ReplayRecoveryMatchesSimulatorAccounting) {
  // The replayer re-derives the paper's recovery overhead (downtime
  // while the node holds undone home tasks) from placement + transition
  // + completion events alone. It must agree with the
  // simulator's own bookkeeping — this is the audit that catches a
  // missing or mis-ordered trace record.
  cluster::EmulationConfig emu;
  emu.node_count = 48;
  emu.interrupted_ratio = 0.5;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  for (const std::uint64_t seed : {3ull, 11ull, 2024ull}) {
    const core::ExperimentConfig config = traced_config(cl, seed);
    const core::ExperimentResult result = core::run_experiment(cl, config);
    const obs::ReplaySummary summary = obs::replay(result.obs.records);
    EXPECT_NEAR(summary.recovery_node_seconds,
                result.job.overhead.recovery,
                1e-6 * std::max(1.0, result.job.overhead.recovery))
        << "seed " << seed;
  }
}

TEST(Obs, TraceExportIsByteIdenticalAcrossThreadCounts) {
  cluster::EmulationConfig emu;
  emu.node_count = 32;
  emu.interrupted_ratio = 0.5;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  const core::ExperimentConfig config = traced_config(cl, 5);

  runner::ExperimentRunner serial(1);
  runner::ExperimentRunner pooled(4);
  std::vector<obs::RunObservations> obs_serial;
  std::vector<obs::RunObservations> obs_pooled;
  (void)serial.run_replications(cl, config, 6, &obs_serial);
  (void)pooled.run_replications(cl, config, 6, &obs_pooled);

  ASSERT_EQ(obs_serial.size(), 6u);
  ASSERT_EQ(obs_pooled.size(), 6u);
  EXPECT_EQ(obs::to_jsonl(obs_serial), obs::to_jsonl(obs_pooled));

  // The merged metrics aggregate is order-insensitive too.
  obs::MetricsSnapshot ms;
  obs::MetricsSnapshot mp;
  for (const auto& run : obs_serial) ms.merge(run.metrics);
  for (const auto& run : obs_pooled) mp.merge(run.metrics);
  std::string js;
  std::string jp;
  ms.append_json(js, "");
  mp.append_json(jp, "");
  EXPECT_EQ(js, jp);
}

TEST(Obs, ReplayHandlesLateJoiners) {
  // A join_at node is absent at load time and comes up mid-run; its
  // trace opens with a kNodeUp transition with no preceding kNodeDown.
  // The replayer must charge the pre-join absence as downtime and keep
  // the recovery audit coherent.
  cluster::EmulationConfig emu;
  emu.node_count = 24;
  emu.interrupted_ratio = 0.5;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  core::ExperimentConfig config = traced_config(cl, 9);
  config.job.churn.enabled = true;
  config.job.churn.join_at.assign(cl.size(), 0.0);
  config.job.churn.join_at[3] = 40.0;
  config.job.churn.join_at[7] = 80.0;
  const core::ExperimentResult result = core::run_experiment(cl, config);
  ASSERT_FALSE(result.obs.records.empty());

  const obs::ReplaySummary summary = obs::replay(result.obs.records);
  EXPECT_DOUBLE_EQ(summary.elapsed, result.job.elapsed);
  ASSERT_GT(summary.nodes.size(), 7u);
  // The joiners' absence from t=0 counts as downtime, so each accrues
  // at least its join delay (more if it also had interruptions later).
  EXPECT_GE(summary.nodes[3].downtime, 40.0 - 1e-9);
  EXPECT_GE(summary.nodes[7].downtime,
            std::min(80.0, result.job.elapsed) - 1e-9);
  EXPECT_GE(summary.nodes[3].transitions, 1u);
}

TEST(Obs, FullStackExportsAreByteIdenticalAcrossThreadCounts) {
  // The new artifacts — span streams, time-series rows and calibration
  // summaries — honor the same cross-thread byte-identity contract as
  // traces and metrics.
  cluster::EmulationConfig emu;
  emu.node_count = 32;
  emu.interrupted_ratio = 0.5;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  core::ExperimentConfig config = traced_config(cl, 5);
  config.obs.spans = true;
  config.obs.sample_dt = 10.0;
  config.obs.calibration.enabled = true;
  config.obs.calibration.per_node = true;

  runner::ExperimentRunner serial(1);
  runner::ExperimentRunner pooled(4);
  std::vector<obs::RunObservations> obs_serial;
  std::vector<obs::RunObservations> obs_pooled;
  (void)serial.run_replications(cl, config, 4, &obs_serial);
  (void)pooled.run_replications(cl, config, 4, &obs_pooled);

  ASSERT_EQ(obs_serial.size(), 4u);
  ASSERT_EQ(obs_pooled.size(), 4u);
  EXPECT_FALSE(obs_serial[0].spans.empty());
  EXPECT_FALSE(obs_serial[0].timeseries.empty());
  EXPECT_GT(obs_serial[0].calibration.pairs, 0u);
  EXPECT_EQ(obs::spans_to_jsonl(obs_serial, false),
            obs::spans_to_jsonl(obs_pooled, false));
  EXPECT_EQ(obs::timeseries_to_jsonl(obs_serial),
            obs::timeseries_to_jsonl(obs_pooled));
  for (std::size_t i = 0; i < obs_serial.size(); ++i) {
    std::string a;
    std::string b;
    obs_serial[i].calibration.append_json(a);
    obs_pooled[i].calibration.append_json(b);
    EXPECT_EQ(a, b) << "run " << i;
  }
  // Host-clock span times are intentionally excluded from the
  // deterministic export but present in memory.
  EXPECT_GT(obs_serial[0].spans.back().dur_host_ns, 0u);
}

}  // namespace
