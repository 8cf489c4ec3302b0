// CalibrationTracker: prediction pairing, the non-finite-quote guard,
// per-node sketches, CUSUM drift detection against a pinned reference
// (warmup, latency, false positives, one-alarm-per-node) and snapshot
// draining.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/calibration.h"

namespace {

using namespace adapt;
using obs::CalibrationOptions;
using obs::CalibrationSnapshot;
using obs::CalibrationTracker;
using obs::DriftAlarm;

CalibrationOptions enabled_options() {
  CalibrationOptions o;
  o.enabled = true;
  return o;
}

TEST(Calibration, PairsRealizedWithPredicted) {
  CalibrationTracker tracker(enabled_options());
  tracker.set_predictions({10.0, 20.0});
  tracker.record_completion(0, 12.0);
  tracker.record_completion(1, 18.0);
  tracker.record_completion(0, 8.0);
  EXPECT_EQ(tracker.pairs(), 3u);
  // ratio = (12 + 18 + 8) / (10 + 20 + 10)
  EXPECT_DOUBLE_EQ(tracker.cluster_ratio(), 38.0 / 40.0);
}

TEST(Calibration, UnquotedNodesFeedSketchesOnly) {
  CalibrationTracker tracker(enabled_options());
  tracker.set_predictions({10.0, 0.0,
                           std::numeric_limits<double>::infinity()});
  tracker.record_completion(0, 10.0);  // paired
  tracker.record_completion(1, 99.0);  // zero quote: unpaired
  tracker.record_completion(2, 99.0);  // inf quote (unstable): unpaired
  tracker.record_completion(9, 99.0);  // no quote at all: unpaired
  EXPECT_EQ(tracker.pairs(), 1u);
  EXPECT_DOUBLE_EQ(tracker.cluster_ratio(), 1.0);
  const CalibrationSnapshot snap = tracker.take_snapshot();
  // All four completions land in the realized sketch regardless.
  EXPECT_EQ(snap.realized.count(), 4u);
  EXPECT_EQ(snap.error.count(), 1u);
}

TEST(Calibration, PerNodeSketchesCarryTheQuote) {
  CalibrationOptions options = enabled_options();
  options.per_node = true;
  CalibrationTracker tracker(options);
  tracker.set_predictions({10.0, 20.0});
  tracker.record_completion(1, 25.0);
  tracker.record_completion(1, 15.0);
  const CalibrationSnapshot snap = tracker.take_snapshot();
  ASSERT_EQ(snap.nodes.size(), 1u);  // only nodes with completions
  EXPECT_EQ(snap.nodes[0].node, 1u);
  EXPECT_DOUBLE_EQ(snap.nodes[0].predicted, 20.0);
  EXPECT_EQ(snap.nodes[0].realized.count(), 2u);
  EXPECT_DOUBLE_EQ(snap.nodes[0].realized.mean(), 20.0);
}

TEST(Calibration, CusumSilentDuringWarmup) {
  CalibrationOptions options = enabled_options();
  options.warmup = 100.0;
  CalibrationTracker tracker(options);
  // Massive drift, but before warmup: nothing may fire or accumulate.
  const std::vector<double> truth = {0.001};
  const std::vector<double> drifted = {10.0};
  const std::vector<double> changed = {-1.0};
  tracker.set_reference(truth, truth);
  EXPECT_TRUE(tracker.cusum_step(50.0, drifted, drifted, changed).empty());
  EXPECT_TRUE(tracker.alarms().empty());
}

TEST(Calibration, CusumScoresNothingWithoutAReference) {
  CalibrationOptions options = enabled_options();
  options.warmup = 0.0;
  options.cusum_threshold = 1.0;
  CalibrationTracker tracker(options);
  EXPECT_FALSE(tracker.has_reference());
  const std::vector<double> drifted = {1e6};
  const std::vector<double> changed = {-1.0};
  for (double t = 10.0; t <= 100.0; t += 10.0) {
    EXPECT_TRUE(tracker.cusum_step(t, drifted, drifted, changed).empty());
  }
  // The same drift against a pinned reference alarms on the first step.
  tracker.set_reference({0.001}, {30.0});
  EXPECT_TRUE(tracker.has_reference());
  EXPECT_EQ(tracker.cusum_step(110.0, drifted, drifted, changed).size(), 1u);
}

TEST(Calibration, CusumDetectsDriftWithLatency) {
  CalibrationOptions options = enabled_options();
  options.warmup = 0.0;
  options.cusum_threshold = 5.0;
  options.cusum_slack = 0.5;
  CalibrationTracker tracker(options);
  const std::vector<double> lambda_truth = {0.001, 0.001};
  const std::vector<double> mu_truth = {30.0, 30.0};
  // Node 0 departed at t = 100: its estimated outage time grows while
  // node 1 stays on truth.
  const std::vector<double> changed = {100.0, -1.0};
  tracker.set_reference(lambda_truth, mu_truth);
  std::vector<DriftAlarm> raised;
  double alarm_t = -1.0;
  for (double t = 105.0; t <= 300.0 && raised.empty(); t += 5.0) {
    const std::vector<double> mu_hat = {30.0 * (1.0 + (t - 100.0)), 30.0};
    raised = tracker.cusum_step(t, lambda_truth, mu_hat, changed);
    alarm_t = t;
  }
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0].node, 0u);
  EXPECT_GT(raised[0].score, 5.0);
  EXPECT_DOUBLE_EQ(raised[0].latency, alarm_t - 100.0);

  // One alarm per node: continuing the drift never re-fires.
  const std::vector<double> mu_hat = {1e6, 30.0};
  EXPECT_TRUE(
      tracker.cusum_step(500.0, lambda_truth, mu_hat, changed).empty());
  EXPECT_EQ(tracker.alarms().size(), 1u);
}

TEST(Calibration, CusumUnderEstimationNeverFires) {
  CalibrationOptions options = enabled_options();
  options.warmup = 0.0;
  CalibrationTracker tracker(options);
  const std::vector<double> truth = {0.01};
  const std::vector<double> mu_truth = {100.0};
  // Cold estimators: lambda-hat and mu-hat far *below* truth. One-sided
  // scoring must not accumulate.
  const std::vector<double> cold = {0.0};
  const std::vector<double> changed = {-1.0};
  tracker.set_reference(truth, mu_truth);
  for (double t = 10.0; t < 1000.0; t += 10.0) {
    EXPECT_TRUE(tracker.cusum_step(t, cold, cold, changed).empty());
  }
}

TEST(Calibration, CusumFalsePositiveHasNegativeLatency) {
  CalibrationOptions options = enabled_options();
  options.warmup = 0.0;
  options.cusum_threshold = 1.0;
  CalibrationTracker tracker(options);
  const std::vector<double> truth = {0.001};
  const std::vector<double> mu_truth = {30.0};
  const std::vector<double> mu_hat = {3000.0};
  const std::vector<double> never_changed = {-1.0};
  tracker.set_reference(truth, mu_truth);
  std::vector<DriftAlarm> raised;
  for (double t = 10.0; t <= 100.0 && raised.empty(); t += 10.0) {
    raised = tracker.cusum_step(t, truth, mu_hat, never_changed);
  }
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_DOUBLE_EQ(raised[0].latency, -1.0);  // no truth change to blame
}

TEST(Calibration, SnapshotDrainsAndResets) {
  CalibrationOptions options = enabled_options();
  options.warmup = 0.0;
  options.cusum_threshold = 1.0;
  CalibrationTracker tracker(options);
  tracker.set_predictions({10.0});
  tracker.record_completion(0, 12.0);
  tracker.set_reference({0.001}, {30.0});
  tracker.cusum_step(50.0, {1.0}, {1000.0}, {10.0});
  const CalibrationSnapshot first = tracker.take_snapshot();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first.pairs, 1u);
  EXPECT_EQ(first.alarms.size(), 1u);

  const CalibrationSnapshot second = tracker.take_snapshot();
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(second.realized.count(), 0u);
  EXPECT_TRUE(second.alarms.empty());
}

TEST(Calibration, SnapshotJsonShape) {
  CalibrationTracker tracker(enabled_options());
  tracker.set_predictions({10.0});
  tracker.record_completion(0, 20.0);
  std::string out;
  tracker.take_snapshot().append_json(out);
  EXPECT_EQ(out.find("{\"pairs\": 1, \"predicted_sum\": 10, "
                     "\"realized_sum\": 20, \"ratio\": 2, \"realized\": "),
            0u);
  EXPECT_NE(out.find(", \"error\": "), std::string::npos);
  EXPECT_NE(out.find(", \"alarms\": []}"), std::string::npos);
}

}  // namespace
