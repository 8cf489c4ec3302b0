// Monte-Carlo validation of Eq. 5: a single simulated node processing
// tasks under injected M/G/1 interruptions should average E[T] per task.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/node.h"
#include "common/stats.h"
#include "sim/event_queue.h"
#include "sim/injector.h"

namespace {

using namespace adapt;
using namespace adapt::sim;

// A minimal single-node task runner: runs `tasks` sequential tasks of
// length gamma; an interruption kills the in-flight attempt, which
// restarts when the node returns (the model's world: no migration).
class SerialRunner : public InterruptionInjector::Listener {
 public:
  SerialRunner(EventQueue& queue, double gamma) : queue_(queue),
                                                  gamma_(gamma) {}

  void start() { begin_attempt(); }

  void on_node_down(cluster::NodeIndex) override {
    up_ = false;
    attempt_event_.cancel();
  }
  void on_node_up(cluster::NodeIndex) override {
    up_ = true;
    if (!done_) begin_attempt();
  }

  bool done() const { return done_; }
  common::Seconds finished_at() const { return finished_at_; }

 private:
  void begin_attempt() {
    if (!up_ || done_) return;
    attempt_event_ = queue_.schedule(queue_.now() + gamma_, [this] {
      done_ = true;
      finished_at_ = queue_.now();
    });
  }

  EventQueue& queue_;
  double gamma_;
  bool up_ = true;
  bool done_ = false;
  common::Seconds finished_at_ = 0.0;
  EventQueue::Handle attempt_event_;
};

struct ModelPoint {
  double lambda;
  double mu;
  double gamma;
};

class Equation5Validation : public ::testing::TestWithParam<ModelPoint> {};

TEST_P(Equation5Validation, SimulatedTaskTimeMatchesCloseForm) {
  const auto [lambda, mu, gamma] = GetParam();
  const avail::InterruptionParams params{lambda, mu};
  const double expected = avail::expected_task_time(params, gamma);

  cluster::NodeSpec spec;
  spec.mode = cluster::AvailabilityMode::kModel;
  spec.arrival_clock = cluster::ArrivalClock::kAbsoluteTime;
  spec.params = params;
  // Exponential service: the M in M/G/1 plus a concrete G.
  spec.service_time = avail::exponential(mu);
  const std::vector<cluster::NodeSpec> nodes = {spec};

  common::RunningStats times;
  common::Rng seeds(2718);
  constexpr int kTasks = 4000;
  for (int i = 0; i < kTasks; ++i) {
    EventQueue queue;
    SerialRunner runner(queue, gamma);
    InterruptionInjector injector(queue, nodes, runner,
                                  common::Rng(seeds()));
    injector.start();
    runner.start();
    queue.run_until([&] { return runner.done(); });
    times.add(runner.finished_at());
  }
  // Mean within 4 standard errors (plus a small epsilon for the tiny
  // bias of starting each task at time zero with an idle repair queue).
  const double stderr_mean =
      times.stddev() / std::sqrt(static_cast<double>(times.count()));
  EXPECT_NEAR(times.mean(), expected,
              4.0 * stderr_mean + 0.05 * expected)
      << "lambda=" << lambda << " mu=" << mu << " gamma=" << gamma;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Equation5Validation,
    ::testing::Values(ModelPoint{0.1, 4.0, 8.0},    // Table 2 group 1
                      ModelPoint{0.05, 8.0, 8.0},   // Table 2 group 4
                      ModelPoint{0.02, 10.0, 12.0},
                      ModelPoint{0.01, 20.0, 12.0},
                      // rho = 0.9, bench_model_validation's near-unstable
                      // row: the busy-period factor dominates E[T].
                      ModelPoint{0.09, 10.0, 8.0}),
    [](const auto& info) {
      const ModelPoint& p = info.param;
      std::string name = "l";
      name += std::to_string(static_cast<int>(p.lambda * 1000));
      name += "_m";
      name += std::to_string(static_cast<int>(p.mu));
      name += "_g";
      name += std::to_string(static_cast<int>(p.gamma));
      return name;
    });

// The deterministic-service variant still satisfies Eq. 3 with mean mu,
// since E[Y] depends only on the service mean (M/G/1 busy period).
TEST(Equation5Validation, DeterministicServiceMatchesToo) {
  const avail::InterruptionParams params{0.05, 6.0};
  const double gamma = 10.0;
  const double expected = avail::expected_task_time(params, gamma);

  cluster::NodeSpec spec;
  spec.mode = cluster::AvailabilityMode::kModel;
  spec.params = params;
  spec.service_time = avail::deterministic(6.0);
  const std::vector<cluster::NodeSpec> nodes = {spec};

  common::RunningStats times;
  common::Rng seeds(3141);
  for (int i = 0; i < 4000; ++i) {
    EventQueue queue;
    SerialRunner runner(queue, gamma);
    InterruptionInjector injector(queue, nodes, runner,
                                  common::Rng(seeds()));
    injector.start();
    runner.start();
    queue.run_until([&] { return runner.done(); });
    times.add(runner.finished_at());
  }
  const double stderr_mean =
      times.stddev() / std::sqrt(static_cast<double>(times.count()));
  EXPECT_NEAR(times.mean(), expected, 4.0 * stderr_mean + 0.05 * expected);
}

}  // namespace
