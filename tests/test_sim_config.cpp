// SimJobConfig validation and the checked Builder: every range check
// throws a ConfigError naming the offending field, at the setter that
// supplied the bad value.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/sim_config.h"

namespace {

using adapt::sim::ConfigError;
using adapt::sim::SimJobConfig;

// The field() a call reports, or "" when it does not throw.
template <typename Fn>
std::string thrown_field(Fn&& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.field();
  }
  return "";
}

TEST(SimConfigTest, DefaultConfigValidates) {
  EXPECT_NO_THROW(SimJobConfig{}.validate());
}

TEST(SimConfigTest, ConfigErrorNamesFieldAndDerivesInvalidArgument) {
  try {
    SimJobConfig config;
    config.gamma = -1.0;
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const std::invalid_argument& e) {
    // Legacy catch sites on std::invalid_argument keep working, and the
    // message carries the structured field name.
    EXPECT_NE(std::string(e.what()).find("config.gamma"),
              std::string::npos)
        << e.what();
  }
}

TEST(SimConfigTest, ValidateChecksHandFilledAggregates) {
  SimJobConfig config;
  config.scheduler.max_concurrent_attempts = 0;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.max_concurrent_attempts");

  config = SimJobConfig{};
  config.transfer_stall_timeout = -1.0;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "transfer_stall_timeout");

  config = SimJobConfig{};
  config.scheduler.speculation = false;
  config.scheduler.speculation_slack = -1.0;  // irrelevant while off
  EXPECT_NO_THROW(config.validate());
  config.scheduler.speculation = true;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.speculation_slack");
}

TEST(SimConfigTest, ChurnChecksAreGatedOnEnabled) {
  SimJobConfig config;
  config.churn.departure_rate = -5.0;
  config.churn.dead_timeout = 0.0;
  // Inert while churn is off: nothing reads these fields.
  EXPECT_NO_THROW(config.validate());
  config.churn.enabled = true;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.departure_rate");
  config.churn.departure_rate = 0.001;
  EXPECT_EQ(thrown_field([&] { config.validate(); }), "churn.dead_timeout");

  // The per-node rate vector is checked element-wise.
  config.churn.dead_timeout = 60.0;
  config.churn.departure_rates = {0.001, -0.001};
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.departure_rate");
}

TEST(SimConfigBuilderTest, BuildsValidatedConfig) {
  const SimJobConfig config = SimJobConfig::Builder()
                                  .gamma(8.0)
                                  .speculation(true, 1.5, 30.0)
                                  .max_concurrent_attempts(1)
                                  .origin_fetch(false)
                                  .transfer_stall_timeout(45.0)
                                  .seed(99)
                                  .churn(true)
                                  .departure_rate(1.0 / 3600.0)
                                  .burst(100.0, 0.25)
                                  .heartbeat(5.0, 3)
                                  .dead_timeout(120.0)
                                  .build();
  EXPECT_EQ(config.gamma, 8.0);
  EXPECT_TRUE(config.scheduler.speculation);
  EXPECT_EQ(config.scheduler.speculation_slack, 1.5);
  EXPECT_EQ(config.scheduler.speculation_overdue, 30.0);
  EXPECT_EQ(config.scheduler.max_concurrent_attempts, 1);
  EXPECT_FALSE(config.allow_origin_fetch);
  EXPECT_EQ(config.transfer_stall_timeout, 45.0);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_TRUE(config.churn.enabled);
  EXPECT_EQ(config.churn.departure_rate, 1.0 / 3600.0);
  EXPECT_EQ(config.churn.burst_at, 100.0);
  EXPECT_EQ(config.churn.burst_fraction, 0.25);
  EXPECT_EQ(config.churn.heartbeat_interval, 5.0);
  EXPECT_EQ(config.churn.heartbeat_miss_threshold, 3);
  EXPECT_EQ(config.churn.dead_timeout, 120.0);
}

TEST(SimConfigBuilderTest, SettersFailEagerlyNamingTheField) {
  using B = SimJobConfig::Builder;
  EXPECT_EQ(thrown_field([] { B().gamma(0.0); }), "gamma");
  EXPECT_EQ(thrown_field([] { B().gamma(-3.0); }), "gamma");
  EXPECT_EQ(thrown_field([] { B().speculation(true, 0.0); }),
            "scheduler.speculation_slack");
  EXPECT_EQ(thrown_field([] { B().max_concurrent_attempts(0); }),
            "scheduler.max_concurrent_attempts");
  EXPECT_EQ(thrown_field([] { B().max_concurrent_attempts(9); }),
            "scheduler.max_concurrent_attempts");
  // The setter admits the scheduler's full range.
  EXPECT_NO_THROW(B().max_concurrent_attempts(8));
  EXPECT_EQ(thrown_field([] { B().transfer_stall_timeout(-0.5); }),
            "transfer_stall_timeout");
  EXPECT_EQ(thrown_field([] { B().departure_rate(-1.0); }),
            "churn.departure_rate");
  EXPECT_EQ(thrown_field([] { B().burst(0.0, 1.5); }),
            "churn.burst_fraction");
  EXPECT_EQ(thrown_field([] { B().heartbeat(0.0, 2); }),
            "churn.heartbeat_interval");
  EXPECT_EQ(thrown_field([] { B().heartbeat(3.0, 0); }),
            "churn.heartbeat_miss_threshold");
  EXPECT_EQ(thrown_field([] { B().dead_timeout(0.0); }),
            "churn.dead_timeout");

  // A disabled feature's knobs are not checked by the gated setters.
  EXPECT_NO_THROW(B().speculation(false, -1.0));
}

TEST(SimConfigTest, SchedulerChecksNameStructuredFields) {
  SimJobConfig config;
  config.scheduler.max_concurrent_attempts = 9;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.max_concurrent_attempts");
  config.scheduler.max_concurrent_attempts = 3;
  EXPECT_NO_THROW(config.validate());

  config = SimJobConfig{};
  config.scheduler.redundancy = 0;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.redundancy");

  config = SimJobConfig{};
  config.scheduler.calibrated_margin = -2.0;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.calibrated_margin");

  config = SimJobConfig{};
  config.scheduler.node_quotes = {5.0, -0.5};
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.node_quotes");

  config = SimJobConfig{};
  config.scheduler.speculation = false;
  config.scheduler.speculation_slack = -1.0;  // inert while off
  EXPECT_NO_THROW(config.scheduler.validate());
}

TEST(SimConfigBuilderTest, SchedulerSettersWriteSchedulerFields) {
  using adapt::sim::SchedulerKind;
  const SimJobConfig config = SimJobConfig::Builder()
                                  .speculation(true, 1.4, 25.0)
                                  .max_concurrent_attempts(1)
                                  .scheduler_kind(SchedulerKind::kCalibrated)
                                  .calibrated_margin(2.5)
                                  .redundancy(4)
                                  .build();
  EXPECT_EQ(config.scheduler.speculation_slack, 1.4);
  EXPECT_EQ(config.scheduler.speculation_overdue, 25.0);
  EXPECT_EQ(config.scheduler.max_concurrent_attempts, 1);
  EXPECT_EQ(config.scheduler.kind, SchedulerKind::kCalibrated);
  EXPECT_EQ(config.scheduler.calibrated_margin, 2.5);
  EXPECT_EQ(config.scheduler.redundancy, 4);

  using B = SimJobConfig::Builder;
  EXPECT_EQ(thrown_field([] { B().calibrated_margin(0.0); }),
            "scheduler.calibrated_margin");
  EXPECT_EQ(thrown_field([] { B().redundancy(9); }),
            "scheduler.redundancy");
}

TEST(SimConfigBuilderTest, BuilderFromBaseRechecksOnBuild) {
  SimJobConfig base;
  base.gamma = -1.0;  // hand-corrupted aggregate
  EXPECT_EQ(thrown_field([&] { SimJobConfig::Builder(base).build(); }),
            "gamma");
  // Fixing the field through the builder makes build() pass.
  EXPECT_NO_THROW(SimJobConfig::Builder(base).gamma(10.0).build());
}

}  // namespace
