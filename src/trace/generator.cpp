#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "availability/distribution.h"

namespace adapt::trace {

void calibrate_mtbi_population(double mean, double cov, double& log_mean,
                               double& log_sigma) {
  if (mean <= 0 || cov <= 0) {
    throw std::invalid_argument("calibrate_mtbi_population: bad targets");
  }
  // Pooled CoV^2 = 2 e^{s^2} - 1  =>  s^2 = ln((CoV^2 + 1) / 2).
  const double s2 = std::log((cov * cov + 1.0) / 2.0);
  if (s2 <= 0) {
    throw std::invalid_argument(
        "calibrate_mtbi_population: pooled CoV must exceed 1 (the "
        "exponential floor)");
  }
  log_sigma = std::sqrt(s2);
  // Pooled mean = harmonic mean = exp(m - s^2/2).
  log_mean = std::log(mean) + s2 / 2.0;
}

double calibrate_duration_population_cov(double pooled_cov,
                                         double within_cov) {
  const double ratio =
      (1.0 + pooled_cov * pooled_cov) / (1.0 + within_cov * within_cov);
  if (ratio <= 1.0) {
    throw std::invalid_argument(
        "calibrate_duration_population_cov: within-host CoV already "
        "exceeds the pooled target");
  }
  return std::sqrt(ratio - 1.0);
}

GeneratedTrace generate_seti_like_trace(const GeneratorConfig& config) {
  if (config.node_count == 0 || config.horizon <= 0) {
    throw std::invalid_argument("generator: empty configuration");
  }

  double mtbi_log_mean = 0.0;
  double mtbi_log_sigma = 0.0;
  double duration_pop_cov = 0.0;
  if (config.reading == Table1Reading::kPooledEvents) {
    calibrate_mtbi_population(config.mtbi_mean, config.mtbi_cov,
                              mtbi_log_mean, mtbi_log_sigma);
    duration_pop_cov = calibrate_duration_population_cov(
        config.duration_cov, config.duration_cov_within);
  } else {
    // Per-host reading: Table 1 gives the host population's moments.
    const double s2 = std::log1p(config.mtbi_cov * config.mtbi_cov);
    mtbi_log_sigma = std::sqrt(s2);
    mtbi_log_mean = std::log(config.mtbi_mean) - s2 / 2.0;
    duration_pop_cov = config.duration_cov;
  }

  const bool coupled = config.reading == Table1Reading::kPerHost;
  avail::DistributionPtr host_duration_means;
  double dur_a = 0.0;          // intercept of ln D on ln M
  double dur_eps_sigma = 0.0;  // residual sigma
  if (coupled) {
    // ln D = a + c ln M + eps with D's lognormal moments at the targets.
    const double c = config.duration_mtbi_coupling;
    const double s2_d = std::log1p(config.duration_cov * config.duration_cov);
    const double mean_ln_d = std::log(config.duration_mean) - s2_d / 2.0;
    const double resid = s2_d - c * c * mtbi_log_sigma * mtbi_log_sigma;
    if (resid < 0) {
      throw std::invalid_argument(
          "generator: duration_mtbi_coupling too large for the requested "
          "duration CoV");
    }
    dur_eps_sigma = std::sqrt(resid);
    dur_a = mean_ln_d - c * mtbi_log_mean;
  } else {
    host_duration_means =
        avail::lognormal_mean_cov(config.duration_mean, duration_pop_cov);
  }

  common::Rng master(config.seed);
  GeneratedTrace out;
  out.trace.node_count = config.node_count;
  out.trace.horizon = config.horizon;
  out.truth.resize(config.node_count);

  for (std::size_t i = 0; i < config.node_count; ++i) {
    common::Rng rng = master.fork(i);

    HostTruth& truth = out.truth[i];
    const double ln_mtbi = mtbi_log_mean + mtbi_log_sigma * rng.normal();
    truth.mtbi = std::max(config.min_host_mtbi, std::exp(ln_mtbi));
    truth.mean_duration = std::max(
        config.min_duration,
        coupled ? std::exp(dur_a +
                           config.duration_mtbi_coupling * ln_mtbi +
                           dur_eps_sigma * rng.normal())
                : host_duration_means->sample(rng));

    const auto durations = avail::lognormal_mean_cov(
        truth.mean_duration, config.duration_cov_within);

    common::Seconds t = rng.exponential(1.0 / truth.mtbi);
    while (t < config.horizon) {
      const double d =
          std::max(config.min_duration, durations->sample(rng));
      out.trace.events.push_back(
          {static_cast<NodeId>(i), t, d});
      t += rng.exponential(1.0 / truth.mtbi);
    }
  }

  std::sort(out.trace.events.begin(), out.trace.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.node < b.node;
            });
  return out;
}

std::vector<avail::InterruptionParams> seti_like_population(
    std::size_t node_count, std::uint64_t seed) {
  // Each host draws its parameters from its own fork before its events,
  // so they do not depend on the horizon; one second keeps the events
  // that are dropped here few.
  GeneratorConfig config;
  config.node_count = node_count;
  config.horizon = 1.0;
  config.seed = seed;
  const GeneratedTrace gen = generate_seti_like_trace(config);
  std::vector<avail::InterruptionParams> params;
  params.reserve(gen.truth.size());
  for (const HostTruth& host : gen.truth) params.push_back(host.params());
  return params;
}

}  // namespace adapt::trace
