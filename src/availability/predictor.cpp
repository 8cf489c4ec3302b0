#include "availability/predictor.h"

#include <stdexcept>

namespace adapt::avail {

PerformancePredictor::PerformancePredictor(std::size_t node_count,
                                           double gamma_prior)
    : params_(node_count), gamma_prior_(gamma_prior) {
  if (node_count == 0) {
    throw std::invalid_argument("predictor: need at least one node");
  }
  if (gamma_prior <= 0) {
    throw std::invalid_argument("predictor: gamma prior must be > 0");
  }
}

void PerformancePredictor::set_params(std::size_t node,
                                      const InterruptionParams& p) {
  params_.at(node) = p;
}

void PerformancePredictor::record_task_length(double gamma_observed) {
  if (gamma_observed <= 0) {
    throw std::invalid_argument("predictor: observed gamma must be > 0");
  }
  const double before = gamma();
  gamma_samples_.add(gamma_observed);
  // A moved gamma re-keys every lookup; the old entries are dead weight.
  if (gamma() != before) active_cache()->invalidate();
}

void PerformancePredictor::set_shared_cache(TaskTimeCache* shared) {
  shared_cache_ = shared;
}

double PerformancePredictor::gamma() const {
  return gamma_samples_.count() > 0 ? gamma_samples_.mean() : gamma_prior_;
}

double PerformancePredictor::expected_task_time(std::size_t node) const {
  return active_cache()->expected_task_time(params_.at(node), gamma());
}

std::vector<double> PerformancePredictor::expected_task_times() const {
  std::vector<double> out;
  out.reserve(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    out.push_back(expected_task_time(i));
  }
  return out;
}

std::vector<double> expected_task_times(
    const std::vector<InterruptionParams>& params, double gamma,
    TaskTimeCache* cache) {
  PerformancePredictor predictor(params.size(), gamma);
  predictor.set_shared_cache(cache);
  for (std::size_t i = 0; i < params.size(); ++i) {
    predictor.set_params(i, params[i]);
  }
  return predictor.expected_task_times();
}

}  // namespace adapt::avail
