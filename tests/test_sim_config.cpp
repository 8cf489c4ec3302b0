// SimJobConfig validation: every range check throws a ConfigError naming
// the offending field.
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
  config.churn.burst_fraction = 1.5;
  config.churn.heartbeat_interval = 0.0;
  config.churn.heartbeat_miss_threshold = 0;
  config.churn.dead_timeout = 0.0;
  // Inert while churn is off: nothing reads these fields.
  EXPECT_NO_THROW(config.validate());
  config.churn.enabled = true;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.departure_rate");
  config.churn.departure_rate = 0.001;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.burst_fraction");
  config.churn.burst_fraction = 0.25;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.heartbeat_interval");
  config.churn.heartbeat_interval = 3.0;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.heartbeat_miss_threshold");
  config.churn.heartbeat_miss_threshold = 2;
  EXPECT_EQ(thrown_field([&] { config.validate(); }), "churn.dead_timeout");

  // The per-node rate vector is checked element-wise.
  config.churn.dead_timeout = 60.0;
  config.churn.departure_rates = {0.001, -0.001};
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.departure_rate");
}

TEST(SimConfigTest, SchedulerChecksNameStructuredFields) {
  SimJobConfig config;
  config.scheduler.max_concurrent_attempts = 9;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.max_concurrent_attempts");
  config.scheduler.max_concurrent_attempts = 8;  // the top of the range
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

}  // namespace
