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
  config.transfer_stall_timeout = -1.0;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "transfer_stall_timeout");
  config.transfer_stall_timeout = 0.0;  // no immediate-abort mode
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "transfer_stall_timeout");
}

TEST(SimConfigTest, ChurnChecksAreGatedOnEnabled) {
  SimJobConfig config;
  config.churn.departure_rate = -5.0;
  config.churn.burst_fraction = 1.5;
  config.churn.heartbeat_interval = 0.0;
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
  EXPECT_EQ(thrown_field([&] { config.validate(); }), "churn.dead_timeout");
}

TEST(SimConfigTest, SafeModeNeedsMessageLevelHeartbeats) {
  // The safe-mode gate runs on message-level heartbeat rounds only; with
  // transition-level detection a threshold would be silently inert.
  SimJobConfig config;
  config.churn.enabled = true;
  config.churn.safe_mode_threshold = 0.2;
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "churn.safe_mode_threshold");
  config.churn.heartbeat_loss_prob = 0.01;
  EXPECT_NO_THROW(config.validate());
  config.churn.heartbeat_loss_prob = 0.0;
  SimJobConfig::ChurnConfig::Partition part;
  part.heal_at = 10.0;
  part.nodes = {0};
  config.churn.partitions.push_back(part);
  EXPECT_NO_THROW(config.validate());
}

TEST(SimConfigTest, SchedulerChecksNameStructuredFields) {
  SimJobConfig config;
  config.scheduler.node_quotes = {5.0, -0.5};
  EXPECT_EQ(thrown_field([&] { config.validate(); }),
            "scheduler.node_quotes");
}

}  // namespace
