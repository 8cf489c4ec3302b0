#include "sim/sim_config.h"

#include <cmath>

namespace adapt::sim {

namespace {

void check_gamma(double value) {
  if (!(value > 0) || !std::isfinite(value)) {
    throw ConfigError("gamma", "must be positive and finite");
  }
}

void check_transfer_stall_timeout(common::Seconds value) {
  if (value < 0 || !std::isfinite(value)) {
    throw ConfigError("transfer_stall_timeout",
                      "must be >= 0 and finite (0 = abort immediately)");
  }
}

void check_departure_rate(double value) {
  if (value < 0 || !std::isfinite(value)) {
    throw ConfigError("churn.departure_rate", "must be >= 0 and finite");
  }
}

void check_burst_fraction(double value) {
  if (value < 0 || value > 1) {
    throw ConfigError("churn.burst_fraction", "must be in [0, 1]");
  }
}

void check_heartbeat_interval(common::Seconds value) {
  if (!(value > 0) || !std::isfinite(value)) {
    throw ConfigError("churn.heartbeat_interval",
                      "must be positive and finite");
  }
}

void check_heartbeat_miss_threshold(int value) {
  if (value < 1) {
    throw ConfigError("churn.heartbeat_miss_threshold", "must be >= 1");
  }
}

void check_dead_timeout(common::Seconds value) {
  if (!(value > 0) || !std::isfinite(value)) {
    throw ConfigError("churn.dead_timeout",
                      "must be > 0 (departed nodes must eventually be "
                      "declared dead)");
  }
}

void check_heartbeat_loss_prob(double value) {
  if (value < 0 || value >= 1 || !std::isfinite(value)) {
    throw ConfigError("churn.heartbeat_loss_prob",
                      "must be in [0, 1) (a node losing every beat is a "
                      "departure, not a gray failure)");
  }
}

void check_partition(const SimJobConfig::ChurnConfig::Partition& p,
                     bool have_domain_of) {
  if (p.at < 0 || !std::isfinite(p.at) || !std::isfinite(p.heal_at)) {
    throw ConfigError("churn.partitions.at", "must be >= 0 and finite");
  }
  if (!(p.heal_at > p.at)) {
    throw ConfigError("churn.partitions.heal_at",
                      "must be strictly after the partition start");
  }
  if (p.domain >= 0 && !have_domain_of) {
    throw ConfigError("churn.partitions.domain",
                      "domain partition needs a node -> domain map (give "
                      "the cluster a DomainLayout)");
  }
  if (p.domain < 0 && p.nodes.empty()) {
    throw ConfigError("churn.partitions.nodes",
                      "must list nodes or name a fault domain");
  }
}

void check_straggler(const SimJobConfig::ChurnConfig::Straggler& s) {
  if (s.at < 0 || !std::isfinite(s.at) || !std::isfinite(s.until)) {
    throw ConfigError("churn.stragglers.at", "must be >= 0 and finite");
  }
  if (!(s.until > s.at)) {
    throw ConfigError("churn.stragglers.until",
                      "must be strictly after the slowdown start");
  }
  if (!(s.slow_factor >= 1.0) || !std::isfinite(s.slow_factor)) {
    throw ConfigError("churn.stragglers.slow_factor",
                      "must be >= 1 and finite");
  }
}

void check_bitrot_rate(double value) {
  if (value < 0 || !std::isfinite(value)) {
    throw ConfigError("churn.bitrot_rate", "must be >= 0 and finite");
  }
}

void check_scan(common::Seconds interval, int blocks_per_sweep) {
  if (interval < 0 || !std::isfinite(interval)) {
    throw ConfigError("churn.scan_interval",
                      "must be >= 0 and finite (0 = scanner off)");
  }
  if (interval > 0 && blocks_per_sweep < 1) {
    throw ConfigError("churn.scan_blocks_per_sweep", "must be >= 1");
  }
}

void check_safe_mode(double threshold, common::Seconds hold) {
  if (threshold < 0 || threshold > 1 || !std::isfinite(threshold)) {
    throw ConfigError("churn.safe_mode_threshold",
                      "must be in [0, 1] (0 = safe mode off)");
  }
  if (threshold > 0 && (!(hold > 0) || !std::isfinite(hold))) {
    throw ConfigError("churn.safe_mode_hold",
                      "must be positive and finite");
  }
}

void check_speculation_slack(double value) {
  if (!(value > 0) || !std::isfinite(value)) {
    throw ConfigError("scheduler.speculation_slack",
                      "must be positive and finite");
  }
}

void check_max_concurrent_attempts(int value) {
  if (value < 1 || value > 8) {
    throw ConfigError("scheduler.max_concurrent_attempts",
                      "must be in [1, 8]");
  }
}

void check_calibrated_margin(double value) {
  if (!(value > 0) || !std::isfinite(value)) {
    throw ConfigError("scheduler.calibrated_margin",
                      "must be positive and finite");
  }
}

void check_redundancy(int value) {
  if (value < 1 || value > 8) {
    throw ConfigError("scheduler.redundancy", "must be in [1, 8]");
  }
}

void check_hysteresis(double value) {
  if (!(value >= 1.0) || !std::isfinite(value)) {
    throw ConfigError("rebalance.hysteresis",
                      "must be >= 1 and finite (a quote at the median "
                      "must never trigger a move)");
  }
}

void check_cooldown(common::Seconds value) {
  if (value < 0 || !std::isfinite(value)) {
    throw ConfigError("rebalance.cooldown", "must be >= 0 and finite");
  }
}

}  // namespace

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
  if (speculation) check_speculation_slack(speculation_slack);
  check_max_concurrent_attempts(max_concurrent_attempts);
  check_calibrated_margin(calibrated_margin);
  check_redundancy(redundancy);
  for (const double quote : node_quotes) {
    // +inf marks an unusable node, so only NaN / negatives are invalid.
    if (quote < 0 || std::isnan(quote)) {
      throw ConfigError("scheduler.node_quotes",
                        "quotes must be >= 0 (+inf = unusable node)");
    }
  }
}

void SimJobConfig::validate() const {
  check_gamma(gamma);
  scheduler.validate();
  check_transfer_stall_timeout(transfer_stall_timeout);
  if (sample_dt < 0 || !std::isfinite(sample_dt)) {
    throw ConfigError("sample_dt", "must be >= 0 and finite");
  }
  if (churn.enabled) {
    check_departure_rate(churn.departure_rate);
    for (const double rate : churn.departure_rates) {
      check_departure_rate(rate);
    }
    check_burst_fraction(churn.burst_fraction);
    if (churn.domain_burst_at >= 0.0 && churn.domain_burst_count > 0 &&
        churn.domain_of.empty()) {
      throw ConfigError("churn.domain_of",
                        "domain burst needs a node -> domain map (give the "
                        "cluster a DomainLayout)");
    }
    check_heartbeat_interval(churn.heartbeat_interval);
    check_heartbeat_miss_threshold(churn.heartbeat_miss_threshold);
    check_dead_timeout(churn.dead_timeout);
    check_heartbeat_loss_prob(churn.heartbeat_loss_prob);
    for (const ChurnConfig::Partition& p : churn.partitions) {
      check_partition(p, !churn.domain_of.empty());
    }
    for (const ChurnConfig::Straggler& s : churn.stragglers) {
      check_straggler(s);
    }
    check_bitrot_rate(churn.bitrot_rate);
    for (const ChurnConfig::Corruption& c : churn.corruptions) {
      if (c.at < 0 || !std::isfinite(c.at)) {
        throw ConfigError("churn.corruptions.at",
                          "must be >= 0 and finite");
      }
    }
    check_scan(churn.scan_interval, churn.scan_blocks_per_sweep);
    check_safe_mode(churn.safe_mode_threshold, churn.safe_mode_hold);
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
    check_hysteresis(rebalance.hysteresis);
    check_cooldown(rebalance.cooldown);
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

SimJobConfig::Builder& SimJobConfig::Builder::gamma(double value) {
  check_gamma(value);
  config_.gamma = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::speculation(
    bool enabled, double slack, common::Seconds overdue) {
  if (enabled) check_speculation_slack(slack);
  config_.scheduler.speculation = enabled;
  config_.scheduler.speculation_slack = slack;
  config_.scheduler.speculation_overdue = overdue;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::max_concurrent_attempts(
    int value) {
  check_max_concurrent_attempts(value);
  config_.scheduler.max_concurrent_attempts = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::scheduler_kind(
    SchedulerKind kind) {
  config_.scheduler.kind = kind;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::calibrated_margin(
    double value) {
  check_calibrated_margin(value);
  config_.scheduler.calibrated_margin = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::redundancy(int value) {
  check_redundancy(value);
  config_.scheduler.redundancy = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::origin_fetch(
    bool allowed, common::Seconds delay) {
  config_.allow_origin_fetch = allowed;
  config_.origin_fetch_delay = delay;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::transfer_stall_timeout(
    common::Seconds value) {
  check_transfer_stall_timeout(value);
  config_.transfer_stall_timeout = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::seed(std::uint64_t value) {
  config_.seed = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::churn(bool enabled) {
  config_.churn.enabled = enabled;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::departure_rate(double value) {
  check_departure_rate(value);
  config_.churn.departure_rate = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::burst(common::Seconds at,
                                                    double fraction) {
  check_burst_fraction(fraction);
  config_.churn.burst_at = at;
  config_.churn.burst_fraction = fraction;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::domain_burst(
    common::Seconds at, std::uint32_t count) {
  config_.churn.domain_burst_at = at;
  config_.churn.domain_burst_count = count;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::heartbeat(
    common::Seconds interval, int miss_threshold) {
  check_heartbeat_interval(interval);
  check_heartbeat_miss_threshold(miss_threshold);
  config_.churn.heartbeat_interval = interval;
  config_.churn.heartbeat_miss_threshold = miss_threshold;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::dead_timeout(
    common::Seconds value) {
  check_dead_timeout(value);
  config_.churn.dead_timeout = value;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::heartbeat_loss(double prob) {
  check_heartbeat_loss_prob(prob);
  config_.churn.heartbeat_loss_prob = prob;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::partition(
    common::Seconds at, common::Seconds heal_at,
    std::vector<std::uint32_t> nodes) {
  ChurnConfig::Partition p;
  p.at = at;
  p.heal_at = heal_at;
  p.nodes = std::move(nodes);
  check_partition(p, /*have_domain_of=*/true);
  config_.churn.partitions.push_back(std::move(p));
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::domain_partition(
    common::Seconds at, common::Seconds heal_at, std::uint32_t domain) {
  ChurnConfig::Partition p;
  p.at = at;
  p.heal_at = heal_at;
  p.domain = static_cast<std::int64_t>(domain);
  check_partition(p, /*have_domain_of=*/true);
  config_.churn.partitions.push_back(std::move(p));
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::straggler(
    std::uint32_t node, common::Seconds at, common::Seconds until,
    double slow_factor) {
  ChurnConfig::Straggler s;
  s.node = node;
  s.at = at;
  s.until = until;
  s.slow_factor = slow_factor;
  check_straggler(s);
  config_.churn.stragglers.push_back(s);
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::bitrot(double rate) {
  check_bitrot_rate(rate);
  config_.churn.bitrot_rate = rate;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::corruption(
    common::Seconds at, std::uint32_t block, std::int64_t node) {
  if (at < 0 || !std::isfinite(at)) {
    throw ConfigError("churn.corruptions.at", "must be >= 0 and finite");
  }
  config_.churn.corruptions.push_back({at, block, node});
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::block_scanner(
    common::Seconds interval, int blocks_per_sweep) {
  check_scan(interval, blocks_per_sweep);
  config_.churn.scan_interval = interval;
  config_.churn.scan_blocks_per_sweep = blocks_per_sweep;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::safe_mode(
    double threshold, common::Seconds hold) {
  check_safe_mode(threshold, hold);
  config_.churn.safe_mode_threshold = threshold;
  config_.churn.safe_mode_hold = hold;
  return *this;
}

SimJobConfig::Builder& SimJobConfig::Builder::rebalance(
    bool enabled, double hysteresis, common::Seconds cooldown) {
  if (enabled) {
    check_hysteresis(hysteresis);
    check_cooldown(cooldown);
  }
  config_.rebalance.enabled = enabled;
  config_.rebalance.hysteresis = hysteresis;
  config_.rebalance.cooldown = cooldown;
  return *this;
}

SimJobConfig SimJobConfig::Builder::build() const {
  config_.validate();
  return config_;
}

}  // namespace adapt::sim
