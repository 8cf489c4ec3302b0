#include "obs/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/jsonfmt.h"

namespace adapt::obs {
namespace {

constexpr std::size_t kPerNodeSketchCapacity = 64;
constexpr double kLogRatioEps = 1e-6;  // log-ratio regularizer

}  // namespace

void CalibrationSnapshot::append_json(std::string& out) const {
  using common::json_number;
  out += "{\"pairs\": " + std::to_string(pairs) +
         ", \"predicted_sum\": " + json_number(predicted_sum) +
         ", \"realized_sum\": " + json_number(realized_sum) +
         ", \"ratio\": " + json_number(ratio()) + ", \"realized\": ";
  realized.append_json(out);
  out += ", \"error\": ";
  error.append_json(out);
  out += ", \"alarms\": [";
  for (std::size_t i = 0; i < alarms.size(); ++i) {
    if (i != 0) out += ", ";
    const DriftAlarm& a = alarms[i];
    out += "{\"node\": " + std::to_string(a.node) +
           ", \"t\": " + json_number(a.t) +
           ", \"score\": " + json_number(a.score) +
           ", \"latency\": " + json_number(a.latency) + "}";
  }
  out += "]}";
}

CalibrationTracker::CalibrationTracker(const CalibrationOptions& options)
    : options_(options) {}

void CalibrationTracker::set_predictions(
    std::vector<double> expected_task_time) {
  predictions_ = std::move(expected_task_time);
}

void CalibrationTracker::record_completion(std::uint32_t node,
                                           common::Seconds realized) {
  realized_.observe(realized);
  if (options_.per_node) {
    while (node_realized_.size() <= node) {
      node_realized_.emplace_back(kPerNodeSketchCapacity);
    }
    node_realized_[node].observe(realized);
  }
  const double predicted =
      node < predictions_.size() ? predictions_[node] : 0.0;
  // Eq. 5 quotes +inf for unstable nodes (lambda * mu >= 1): a valid
  // "never finishes" prediction for placement, but pairing it would
  // poison the ratio sums, so such completions only feed the sketches.
  if (predicted > 0.0 && std::isfinite(predicted)) {
    ++pairs_;
    predicted_sum_ += predicted;
    realized_sum_ += realized;
    error_.observe(realized / predicted);
  }
}

void CalibrationTracker::set_reference(std::vector<double> lambda,
                                       std::vector<double> mu) {
  reference_lambda_ = std::move(lambda);
  reference_mu_ = std::move(mu);
}

std::vector<DriftAlarm> CalibrationTracker::cusum_step(
    common::Seconds now, const std::vector<double>& lambda_hat,
    const std::vector<double>& mu_hat,
    const std::vector<common::Seconds>& truth_changed_at) {
  std::vector<DriftAlarm> raised;
  const std::size_t n =
      std::min({lambda_hat.size(), mu_hat.size(), reference_lambda_.size(),
                reference_mu_.size(), truth_changed_at.size()});
  if (cusum_g_.size() < n) {
    cusum_g_.resize(n, 0.0);
    alarmed_.resize(n, false);
  }
  if (now < options_.warmup) return raised;

  const double eps = kLogRatioEps;
  for (std::size_t i = 0; i < n; ++i) {
    if (alarmed_[i]) continue;
    const double x_mu = std::max(
        0.0, std::log((mu_hat[i] + eps) / (reference_mu_[i] + eps)));
    const double x_lambda = std::max(
        0.0, std::log((lambda_hat[i] + eps) / (reference_lambda_[i] + eps)));
    double& g = cusum_g_[i];
    g = std::max(0.0, g + x_mu + x_lambda - options_.cusum_slack);
    if (g > options_.cusum_threshold) {
      alarmed_[i] = true;
      DriftAlarm a;
      a.node = static_cast<std::uint32_t>(i);
      a.t = now;
      a.score = g;
      const common::Seconds changed = truth_changed_at[i];
      a.latency = (changed >= 0.0 && now >= changed) ? now - changed : -1.0;
      alarms_.push_back(a);
      raised.push_back(a);
    }
  }
  return raised;
}

CalibrationSnapshot CalibrationTracker::take_snapshot() {
  CalibrationSnapshot snap;
  snap.realized = std::move(realized_);
  snap.error = std::move(error_);
  snap.pairs = pairs_;
  snap.predicted_sum = predicted_sum_;
  snap.realized_sum = realized_sum_;
  for (std::size_t i = 0; i < node_realized_.size(); ++i) {
    if (node_realized_[i].empty()) continue;
    NodeCalibration nc;
    nc.node = static_cast<std::uint32_t>(i);
    nc.predicted = i < predictions_.size() ? predictions_[i] : 0.0;
    nc.realized = std::move(node_realized_[i]);
    snap.nodes.push_back(std::move(nc));
  }
  snap.alarms = std::move(alarms_);

  realized_ = QuantileSketch();
  error_ = QuantileSketch();
  pairs_ = 0;
  predicted_sum_ = 0.0;
  realized_sum_ = 0.0;
  node_realized_.clear();
  cusum_g_.clear();
  alarmed_.clear();
  alarms_.clear();
  return snap;
}

}  // namespace adapt::obs
