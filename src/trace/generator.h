// Synthetic SETI@home-like failure trace generator.
//
// Substitution note (see DESIGN.md §2): the paper replays Failure Trace
// Archive data from 226 208 SETI@home hosts; that data set is not
// available here, so we synthesize traces whose *pooled event
// statistics* match the paper's Table 1:
//
//             mean (s)   std dev (s)   CoV
//   MTBI       160290      701419      4.376
//   duration   109380      807983      7.3869
//
// Model: host i draws a personal mean-time-between-interruptions M_i and
// a personal mean repair duration D_i from population lognormals;
// within a host, inter-arrivals are Exp(M_i) (the paper's model
// assumption) and durations are lognormal(D_i, cov_within).
//
// Two readings of Table 1 are supported (see DESIGN.md):
//
//  * kPerHost (default): the summary describes the *population of
//    hosts* — M_i ~ LogNormal(mean, cov) and D_i ~ LogNormal(mean, cov)
//    directly. This leaves a sizable volatile subpopulation (about 9%
//    of hosts interrupt more often than hourly), which is what the
//    paper's simulation results require and what per-host FTA summaries
//    describe.
//
//  * kPooledEvents: the summary describes the pooled *event* samples.
//    Pooled inter-arrival samples are event-weighted (a flaky host
//    contributes many more gaps), giving, for M_i ~ LogNormal(m, s),
//      E[gap]   = exp(m - s^2/2)   (harmonic mean of M_i)
//      E[gap^2] = 2 exp(2m)
//    hence CoV^2 = 2 e^{s^2} - 1. Durations are unbiased by event
//    weighting, giving 1 + CoV^2 = (1 + cov_pop^2)(1 + cov_within^2).
//    Note this reading concentrates nearly all events on a tiny host
//    fraction and leaves almost no within-job volatility.
#pragma once

#include "availability/interruption_model.h"
#include "common/rng.h"
#include "trace/event.h"

#include <vector>

namespace adapt::trace {

enum class Table1Reading { kPerHost, kPooledEvents };

struct GeneratorConfig {
  std::size_t node_count = 16384;
  common::Seconds horizon = 1.5 * 365.0 * 24.0 * 3600.0;  // 1.5 years
  Table1Reading reading = Table1Reading::kPerHost;

  // Table 1 targets.
  double mtbi_mean = 160290.0;
  double mtbi_cov = 4.376;
  double duration_mean = 109380.0;
  double duration_cov = 7.3869;

  // Within-host duration variability; the remainder of duration_cov is
  // assigned to cross-host spread.
  double duration_cov_within = 2.0;

  // Joint structure of per-host repair time vs MTBI (kPerHost reading):
  //   ln D_i = a + coupling * ln M_i + eps,  eps ~ N(0, sigma_eps^2),
  // with (a, sigma_eps) solved so D's population moments match Table 1
  // exactly for any coupling in [0, ~1.15].
  //   coupling = 1: D proportional to M (rho independent of M; every
  //     host has the same utilization distribution, so frequent
  //     interrupters have proportionally short repairs);
  //   coupling = 0: D independent of M (frequent interrupters also have
  //     typical-length repairs, so rho and the interruption rate are
  //     strongly positively correlated — the volatile minority is both
  //     flaky and slow to return, which is what availability-aware
  //     placement exploits).
  // The default sits between the extremes.
  double duration_mtbi_coupling = 0.5;

  // Guards against pathological hosts that would flood the trace.
  common::Seconds min_host_mtbi = 30.0;
  common::Seconds min_duration = 1.0;

  std::uint64_t seed = 42;
};

// Per-host ground-truth parameters drawn by the generator; kept so tests
// and experiments can compare extraction against truth.
struct HostTruth {
  double mtbi = 0.0;           // M_i
  double mean_duration = 0.0;  // D_i
  avail::InterruptionParams params() const {
    return {1.0 / mtbi, mean_duration};
  }
};

struct GeneratedTrace {
  Trace trace;
  std::vector<HostTruth> truth;  // node_count entries
};

GeneratedTrace generate_seti_like_trace(const GeneratorConfig& config);

// Per-host (lambda, mu) of a SETI@home-like population: the HostTruth
// params generate_seti_like_trace draws for `node_count` hosts from
// `seed`, with every other setting at its default.
std::vector<avail::InterruptionParams> seti_like_population(
    std::size_t node_count, std::uint64_t seed);

// Calibration helpers, exposed for tests.
// Lognormal (m, s) for per-host MTBI such that pooled event-weighted
// gaps hit (mean, cov).
void calibrate_mtbi_population(double mean, double cov, double& log_mean,
                               double& log_sigma);
// Cross-host CoV of D_i given the pooled duration CoV and within-host CoV.
double calibrate_duration_population_cov(double pooled_cov,
                                         double within_cov);

}  // namespace adapt::trace
