// The ADAPT Performance Predictor (paper Fig. 2).
//
// Lives on the NameNode. Combines (a) per-node interruption parameters —
// either ground truth supplied by an experiment or estimates from the
// heartbeat collector — with (b) the failure-free map-task length gamma
// learned from completed-task logs, and produces the per-node expected
// task time E[T_i] that drives Algorithm 1.
#pragma once

#include <cstddef>
#include <vector>

#include "availability/interruption_model.h"
#include "availability/task_time_cache.h"
#include "common/stats.h"

namespace adapt::avail {

class PerformancePredictor {
 public:
  // n nodes, all initially assumed perfectly available (lambda = mu = 0),
  // with a prior failure-free task length.
  PerformancePredictor(std::size_t node_count, double gamma_prior);

  std::size_t node_count() const { return params_.size(); }

  // Replace the availability parameters of one node (heartbeat-collector
  // update path, or experiment ground truth).
  void set_params(std::size_t node, const InterruptionParams& p);

  // Feed one completed local task's failure-free execution time (the
  // "logging services of Hadoop" input). The gamma used for prediction
  // is the running mean, falling back to the prior until data arrives.
  void record_task_length(double gamma_observed);
  double gamma() const;

  // E[T_i] for a task of the current gamma on node i (Eq. 5). Memoized
  // through a TaskTimeCache; bit-exact vs the direct Eq. 5 evaluation.
  double expected_task_time(std::size_t node) const;

  // All nodes' E[T], in node order.
  std::vector<double> expected_task_times() const;

  // Route E[T] evaluations through an external cache instead of the
  // predictor's own — lets repeated policy rebuilds (churn recovery
  // refreshing its destination policy per dead-node event) reuse one
  // memo table. Pass nullptr to return to the internal cache. The
  // caller keeps `shared` alive for the predictor's lifetime.
  void set_shared_cache(TaskTimeCache* shared);

  // The cache currently in effect (internal unless shared).
  const TaskTimeCache& task_time_cache() const { return *active_cache(); }

 private:
  TaskTimeCache* active_cache() const {
    return shared_cache_ != nullptr ? shared_cache_ : &own_cache_;
  }

  std::vector<InterruptionParams> params_;
  double gamma_prior_;
  common::RunningStats gamma_samples_;
  // Memoizes (lambda, mu, gamma) -> E[T]. Keys are value bit patterns,
  // so set_params never stales it; gamma refreshes flush it because
  // every old key becomes unreachable.
  mutable TaskTimeCache own_cache_;
  TaskTimeCache* shared_cache_ = nullptr;
};

// Every node's E[T] under `params` for a task of length `gamma`, in node
// order: what a predictor holding `params` quotes. A non-null `cache` is
// shared as with set_shared_cache.
std::vector<double> expected_task_times(
    const std::vector<InterruptionParams>& params, double gamma,
    TaskTimeCache* cache = nullptr);

}  // namespace adapt::avail
