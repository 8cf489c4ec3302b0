#include "sim/sim_config.h"

#include <cmath>

namespace adapt::sim {

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBaseline:
      return "baseline";
    case SchedulerKind::kCalibrated:
      return "calibrated";
    case SchedulerKind::kRedundant:
      return "redundant";
  }
  return "unknown";
}

void SchedulerConfig::validate() const {
  for (const double quote : node_quotes) {
    // +inf marks an unusable node, so only NaN / negatives are invalid.
    if (quote < 0 || std::isnan(quote)) {
      throw ConfigError("scheduler.node_quotes",
                        "quotes must be >= 0 (+inf = unusable node)");
    }
  }
}

void SimJobConfig::validate() const {
  if (!(gamma > 0) || !std::isfinite(gamma)) {
    throw ConfigError("gamma", "must be positive and finite");
  }
  scheduler.validate();
  if (!(transfer_stall_timeout > 0) ||
      !std::isfinite(transfer_stall_timeout)) {
    throw ConfigError("transfer_stall_timeout",
                      "must be positive and finite");
  }
  if (sample_dt < 0 || !std::isfinite(sample_dt)) {
    throw ConfigError("sample_dt", "must be >= 0 and finite");
  }
  if (churn.enabled) {
    if (churn.departure_rate < 0 || !std::isfinite(churn.departure_rate)) {
      throw ConfigError("churn.departure_rate", "must be >= 0 and finite");
    }
    if (churn.burst_fraction < 0 || churn.burst_fraction > 1) {
      throw ConfigError("churn.burst_fraction", "must be in [0, 1]");
    }
    if (churn.domain_burst_at >= 0.0 && churn.domain_burst_count > 0 &&
        churn.domain_of.empty()) {
      throw ConfigError("churn.domain_of",
                        "domain burst needs a node -> domain map (give the "
                        "cluster a DomainLayout)");
    }
    if (!(churn.heartbeat_interval > 0) ||
        !std::isfinite(churn.heartbeat_interval)) {
      throw ConfigError("churn.heartbeat_interval",
                        "must be positive and finite");
    }
    if (!(churn.dead_timeout > 0) || !std::isfinite(churn.dead_timeout)) {
      throw ConfigError("churn.dead_timeout",
                        "must be > 0 (departed nodes must eventually be "
                        "declared dead)");
    }
    if (churn.heartbeat_loss_prob < 0 || churn.heartbeat_loss_prob >= 1 ||
        !std::isfinite(churn.heartbeat_loss_prob)) {
      throw ConfigError("churn.heartbeat_loss_prob",
                        "must be in [0, 1) (a node losing every beat is a "
                        "departure, not a gray failure)");
    }
    for (const ChurnConfig::Partition& p : churn.partitions) {
      if (p.at < 0 || !std::isfinite(p.at) || !std::isfinite(p.heal_at)) {
        throw ConfigError("churn.partitions.at", "must be >= 0 and finite");
      }
      if (!(p.heal_at > p.at)) {
        throw ConfigError("churn.partitions.heal_at",
                          "must be strictly after the partition start");
      }
      if (p.domain >= 0 && churn.domain_of.empty()) {
        throw ConfigError("churn.partitions.domain",
                          "domain partition needs a node -> domain map "
                          "(give the cluster a DomainLayout)");
      }
      if (p.domain < 0 && p.nodes.empty()) {
        throw ConfigError("churn.partitions.nodes",
                          "must list nodes or name a fault domain");
      }
    }
    for (const ChurnConfig::Straggler& st : churn.stragglers) {
      if (st.at < 0 || !std::isfinite(st.at) || !std::isfinite(st.until)) {
        throw ConfigError("churn.stragglers.at", "must be >= 0 and finite");
      }
      if (!(st.until > st.at)) {
        throw ConfigError("churn.stragglers.until",
                          "must be strictly after the slowdown start");
      }
      if (!(st.slow_factor >= 1.0) || !std::isfinite(st.slow_factor)) {
        throw ConfigError("churn.stragglers.slow_factor",
                          "must be >= 1 and finite");
      }
    }
    if (churn.bitrot_rate < 0 || !std::isfinite(churn.bitrot_rate)) {
      throw ConfigError("churn.bitrot_rate", "must be >= 0 and finite");
    }
    for (const ChurnConfig::Corruption& c : churn.corruptions) {
      if (c.at < 0 || !std::isfinite(c.at)) {
        throw ConfigError("churn.corruptions.at",
                          "must be >= 0 and finite");
      }
    }
    if (churn.scan_interval < 0 || !std::isfinite(churn.scan_interval)) {
      throw ConfigError("churn.scan_interval",
                        "must be >= 0 and finite (0 = scanner off)");
    }
    if (churn.scan_interval > 0 && churn.scan_blocks_per_sweep < 1) {
      throw ConfigError("churn.scan_blocks_per_sweep", "must be >= 1");
    }
    if (churn.safe_mode_threshold < 0 || churn.safe_mode_threshold > 1 ||
        !std::isfinite(churn.safe_mode_threshold)) {
      throw ConfigError("churn.safe_mode_threshold",
                        "must be in [0, 1] (0 = safe mode off)");
    }
    if (churn.safe_mode_threshold > 0 && !churn.message_level()) {
      throw ConfigError("churn.safe_mode_threshold",
                        "needs message-level heartbeats (heartbeat loss or "
                        "a partition); transition-level detection declares "
                        "nodes dead directly, so safe mode could never act");
    }
    if (churn.safe_mode_threshold > 0 &&
        (!(churn.safe_mode_hold > 0) || !std::isfinite(churn.safe_mode_hold))) {
      throw ConfigError("churn.safe_mode_hold",
                        "must be positive and finite");
    }
  } else if (churn.gray_enabled()) {
    throw ConfigError("churn.enabled",
                      "gray-failure knobs require churn (the heartbeat "
                      "collector drives detection)");
  }
  if (rebalance.enabled) {
    if (!churn.enabled) {
      throw ConfigError("rebalance.enabled",
                        "requires churn (drift alarms need the heartbeat "
                        "estimator)");
    }
    if (!(rebalance.hysteresis >= 1.0) ||
        !std::isfinite(rebalance.hysteresis)) {
      throw ConfigError("rebalance.hysteresis",
                        "must be >= 1 and finite (a quote at the median "
                        "must never trigger a move)");
    }
    if (rebalance.cooldown < 0 || !std::isfinite(rebalance.cooldown)) {
      throw ConfigError("rebalance.cooldown", "must be >= 0 and finite");
    }
    if (rebalance.migration.max_concurrent < 1) {
      throw ConfigError("rebalance.migration.max_concurrent",
                        "must be >= 1");
    }
    if (rebalance.migration.budget_bytes_per_s < 0 ||
        !std::isfinite(rebalance.migration.budget_bytes_per_s)) {
      throw ConfigError("rebalance.migration.budget_bytes_per_s",
                        "must be >= 0 and finite (0 = unlimited)");
    }
  }
}

}  // namespace adapt::sim
