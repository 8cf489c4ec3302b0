// Prediction calibration: was the Performance Predictor right, and when
// did it stop being right?
//
// The tracker pairs each retired map task's realized completion time
// with the E[T_i] the predictor quoted for the winning node *at
// placement time* (the caller pins those quotes with set_predictions
// before the run starts), maintains per-node and cluster-wide
// calibration ratios (realized / predicted), and runs a one-sided
// CUSUM drift detector over the λ̂/μ̂ estimator outputs against a
// reference: the per-node (λ, μ) the placement was priced with, pinned
// with set_reference next to the quotes. After a job stream's regime
// shift the reference stays the placement-time beliefs, not the regime
// the injector now runs.
//
// CUSUM scoring: per node, x = pos(log((μ̂+ε)/(μ+ε))) +
// pos(log((λ̂+ε)/(λ+ε))) with ε = 1e-6, g = max(0, g + x − slack),
// alarm once when g > threshold. Only over-estimation accumulates — a
// node looking *worse* than its reference is the drift direction that
// matters (the estimator's censored-outage floor makes μ̂ of a permanently
// departed node grow without bound, which is exactly the signal);
// under-estimation early in a run (λ̂ ≈ 0 before the first observed
// interruption) must not fire. A warmup window suppresses accumulation
// entirely while the estimators are still cold.
//
// Detection latency is measurable: an alarm raised at time t for a node
// whose ground truth changed at time c (its permanent departure)
// reports latency t − c; alarms with no preceding truth change report
// −1 (a false positive).
//
// The tracker takes plain double vectors, not estimator types, so
// adapt_obs stays independent of adapt_availability.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/quantile_sketch.h"

namespace adapt::obs {

// The cluster-wide sketches keep QuantileSketch::kDefaultCapacity
// points and the per-node ones 64.
struct CalibrationOptions {
  bool enabled = false;
  bool per_node = false;            // keep per-node realized-time sketches
  double cusum_threshold = 5.0;     // alarm when g exceeds this
  double cusum_slack = 0.5;         // per-step drift allowance
  common::Seconds warmup = 60.0;    // no accumulation before this sim time
};

// A drift alarm: node's CUSUM score crossed the threshold at sim time t.
struct DriftAlarm {
  std::uint32_t node = 0;
  common::Seconds t = 0.0;
  double score = 0.0;     // g at the moment of the alarm
  double latency = -1.0;  // t − truth_changed_at, or −1 (false positive)
};

// Per-node calibration state exported for reports and examples.
struct NodeCalibration {
  std::uint32_t node = 0;
  double predicted = 0.0;  // E[T] quoted at placement time
  QuantileSketch realized; // realized completion times on this node
};

// What one instrumented run hands back: cluster-wide sketches, pairing
// totals, per-node state (when enabled) and the drift alarms raised.
struct CalibrationSnapshot {
  QuantileSketch realized;  // realized completion times, all nodes
  QuantileSketch error;     // realized / predicted ratios
  std::uint64_t pairs = 0;
  double predicted_sum = 0.0;
  double realized_sum = 0.0;
  std::vector<NodeCalibration> nodes;  // empty unless per_node
  std::vector<DriftAlarm> alarms;

  double ratio() const {
    return predicted_sum > 0.0 ? realized_sum / predicted_sum : 0.0;
  }
  bool empty() const { return pairs == 0 && alarms.empty(); }

  // Fixed-key-order JSON object:
  // {"pairs": N, "predicted_sum": ..., "realized_sum": ..., "ratio": ...,
  //  "realized": <sketch>, "error": <sketch>, "alarms": [...]}
  void append_json(std::string& out) const;
};

class CalibrationTracker {
 public:
  explicit CalibrationTracker(const CalibrationOptions& options);

  // Pin the per-node E[T] quotes the placement policy saw. Must be
  // called before completions are recorded; tasks finishing on a node
  // with no quote (or a non-positive or non-finite one — Eq. 5 quotes
  // +inf for unstable nodes) still feed the realized sketches but not
  // the error sketch or ratio sums.
  void set_predictions(std::vector<double> expected_task_time);

  // Pair a retired task's realized completion time with the winning
  // node's placement-time quote.
  void record_completion(std::uint32_t node, common::Seconds realized);

  // Pin the CUSUM's reference: the per-node (λ, μ) the placement was
  // priced with. Until it is set, cusum_step scores nothing.
  void set_reference(std::vector<double> lambda, std::vector<double> mu);
  bool has_reference() const { return !reference_lambda_.empty(); }

  // One CUSUM step over the estimator outputs. All vectors are indexed
  // by node; `truth_changed_at[i]` is the sim time node i's ground truth
  // changed (its permanent departure), or −1 if it never did. Returns
  // the alarms newly raised this step (each node alarms at most once).
  std::vector<DriftAlarm> cusum_step(
      common::Seconds now, const std::vector<double>& lambda_hat,
      const std::vector<double>& mu_hat,
      const std::vector<common::Seconds>& truth_changed_at);

  // Cluster-wide realized/predicted ratio so far (0 until the first
  // pairing with a positive quote) — sampled as a time-series gauge.
  double cluster_ratio() const {
    return predicted_sum_ > 0.0 ? realized_sum_ / predicted_sum_ : 0.0;
  }
  std::uint64_t pairs() const { return pairs_; }
  const std::vector<DriftAlarm>& alarms() const { return alarms_; }
  const CalibrationOptions& options() const { return options_; }

  // Drain the tracker into a snapshot, leaving it reset.
  CalibrationSnapshot take_snapshot();

 private:
  CalibrationOptions options_;
  std::vector<double> predictions_;
  std::vector<double> reference_lambda_;
  std::vector<double> reference_mu_;
  QuantileSketch realized_;
  QuantileSketch error_;
  std::uint64_t pairs_ = 0;
  double predicted_sum_ = 0.0;
  double realized_sum_ = 0.0;
  std::vector<QuantileSketch> node_realized_;  // per_node only
  std::vector<double> cusum_g_;
  std::vector<bool> alarmed_;
  std::vector<DriftAlarm> alarms_;
};

}  // namespace adapt::obs
