#include "sim/scheduler_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace adapt::sim {

namespace {

constexpr std::uint32_t kNoTask = std::numeric_limits<std::uint32_t>::max();

// Duplicate a laggard only when its remaining time exceeds this multiple
// of the expected cost of running it fresh on the idle node.
constexpr double kSpeculationSlack = 1.2;
// Concurrent attempts per task: the original plus one speculative copy.
constexpr std::size_t kMaxConcurrentAttempts = 2;
// kCalibrated: a task is a laggard once its realized running time
// exceeds this margin * max(1, cluster calibration ratio) * the
// placement-time Eq. 5 quote of the node executing it.
constexpr double kCalibratedMargin = 1.5;
// kRedundant: every task launches on this many nodes up-front (k = 2).
constexpr int kRedundancy = 2;

// The laggard scan baseline and calibrated share; only the overdue test
// differs. It must stay line-for-line equivalent to the historical
// hardcoded MapReduceSimulation::try_speculate: prefer the overdue
// attempt local to the asking node with the most remaining work, else
// the globally worst laggard, and only duplicate when the laggard's
// remaining time beats slack * the fresh cost on the idle node.
template <typename Overdue>
std::optional<std::uint32_t> pick_laggard(cluster::NodeIndex node,
                                          const SchedulerHost& host,
                                          Overdue overdue) {
  std::uint32_t best_local = kNoTask;
  double best_local_remaining = 0.0;
  std::uint32_t best_any = kNoTask;
  double best_any_remaining = 0.0;
  const std::size_t n = host.running_count();
  for (std::size_t i = 0; i < n; ++i) {
    const AttemptView a = host.running_attempt(i);
    if (!a.alive) continue;
    if (a.node == node) continue;
    if (!host.task_running(a.task)) continue;
    if (host.attempt_count(a.task) >= kMaxConcurrentAttempts) continue;
    if (!overdue(a)) continue;
    const double remaining = a.remaining;
    if (host.is_local_to(a.task, node)) {
      if (remaining > best_local_remaining) {
        best_local_remaining = remaining;
        best_local = a.task;
      }
    } else if (remaining > best_any_remaining) {
      best_any_remaining = remaining;
      best_any = a.task;
    }
  }
  const bool use_local = best_local != kNoTask;
  const std::uint32_t best = use_local ? best_local : best_any;
  const double best_remaining =
      use_local ? best_local_remaining : best_any_remaining;
  if (best == kNoTask) return std::nullopt;
  const double fresh_cost = host.estimated_cost_on(node, best);
  if (fresh_cost < 0 || best_remaining <= kSpeculationSlack * fresh_cost) {
    return std::nullopt;
  }
  return best;
}

// Hadoop-style locality + slack speculation: an attempt is overdue once
// its projected finish has slipped one gamma past its launch-time
// projection.
class BaselineScheduler : public SchedulerPolicy {
 public:
  BaselineScheduler(const SchedulerConfig& config, double gamma)
      : config_(config), gamma_(gamma) {}

  std::string name() const override { return "baseline"; }
  SchedulerKind kind() const override { return SchedulerKind::kBaseline; }
  bool speculation_enabled() const override { return config_.speculation; }

  std::optional<std::uint32_t> pick_speculative(
      cluster::NodeIndex node, const SchedulerHost& host) const override {
    return pick_laggard(node, host, [this](const AttemptView& a) {
      return !(a.projected_finish - a.nominal_end < gamma_);
    });
  }

 protected:
  SchedulerConfig config_;
  double gamma_;
};

// Eq. 5-driven laggard detection: an attempt is overdue when the task's
// realized running time exceeds the executing node's placement-time
// E[T] quote by kCalibratedMargin, scaled by the cluster-wide
// calibration ratio (realized/predicted) so a uniformly mis-calibrated
// predictor does not mark the whole cluster late. Nodes without a
// finite quote fall back to the baseline slip rule.
class CalibratedScheduler : public BaselineScheduler {
 public:
  using BaselineScheduler::BaselineScheduler;

  std::string name() const override { return "calibrated"; }
  SchedulerKind kind() const override { return SchedulerKind::kCalibrated; }

  std::optional<std::uint32_t> pick_speculative(
      cluster::NodeIndex node, const SchedulerHost& host) const override {
    const double ratio = host.cluster_calibration_ratio();
    const double scale =
        kCalibratedMargin * std::max(1.0, ratio > 0 ? ratio : 1.0);
    const common::Seconds now = host.now();
    return pick_laggard(node, host, [&](const AttemptView& a) {
      const double quote = a.node < config_.node_quotes.size()
                               ? config_.node_quotes[a.node]
                               : std::numeric_limits<double>::infinity();
      if (std::isfinite(quote) && a.first_start >= 0.0) {
        // Realized time already exceeds what the predictor promised for
        // this node, with margin: the quote itself was wrong or the
        // node degraded since placement — duplicate.
        return now - a.first_start > scale * quote;
      }
      return a.projected_finish - a.nominal_end >= gamma_;
    });
  }
};

// Up-front redundancy: every fresh task launch is accompanied by k-1
// duplicates (the simulator places them); the existing cancel-on-first-
// finish machinery reaps the losers. No reactive speculation — the
// duplicates already cover stragglers — so stall wake-ups stay off.
class RedundantScheduler : public SchedulerPolicy {
 public:
  std::string name() const override { return "redundant"; }
  SchedulerKind kind() const override { return SchedulerKind::kRedundant; }
  int extra_initial_launches() const override { return kRedundancy - 1; }
  bool speculation_enabled() const override { return false; }
  std::optional<std::uint32_t> pick_speculative(
      cluster::NodeIndex, const SchedulerHost&) const override {
    return std::nullopt;
  }
};

}  // namespace

SchedulerPtr make_scheduler(const SchedulerConfig& config, double gamma) {
  config.validate();
  switch (config.kind) {
    case SchedulerKind::kBaseline:
      return std::make_unique<BaselineScheduler>(config, gamma);
    case SchedulerKind::kCalibrated:
      return std::make_unique<CalibratedScheduler>(config, gamma);
    case SchedulerKind::kRedundant:
      return std::make_unique<RedundantScheduler>();
  }
  throw std::invalid_argument("make_scheduler: unknown SchedulerKind");
}

}  // namespace adapt::sim
