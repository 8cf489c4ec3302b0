// Static description of the hosts an experiment runs on.
//
// Runtime state (up/down, running attempts) lives in the simulator; this
// header describes what a host *is*: its availability process and its
// link speeds, the two properties the paper's non-dedicated environment
// varies. Every host has one map slot, as the paper's emulated one-core
// TaskTrackers do, and an unbounded disk.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "availability/distribution.h"
#include "availability/interruption_model.h"
#include "common/units.h"
#include "trace/profile.h"

namespace adapt::cluster {

using NodeIndex = std::uint32_t;

// How a host's unavailability is driven during simulation.
enum class AvailabilityMode {
  kAlwaysUp,   // dedicated host, never interrupted
  kModel,      // Poisson arrivals (params.lambda) + service_time samples
  kReplay,     // replay recorded down intervals
};

// What clock the model-mode Poisson arrivals run on.
//  * kAbsoluteTime — arrivals occur in wall time, including during an
//    outage, and queue FCFS: the exact M/G/1 process of Section III-A.
//  * kUptime — the interruption clock pauses during repair (the next
//    interruption arrives Exp(1/lambda) of *uptime* after recovery), the
//    way fault injectors sleep-then-kill. The paper's emulated Table 2
//    numbers are only reachable under this semantics (see DESIGN.md);
//    the M/G/1 model remains the predictor's approximation of it.
enum class ArrivalClock { kAbsoluteTime, kUptime };

struct NodeSpec {
  AvailabilityMode mode = AvailabilityMode::kAlwaysUp;

  // Ground-truth parameters; for kModel these drive the injector, for
  // kReplay they are the measured values extracted from the trace.
  avail::InterruptionParams params;
  ArrivalClock arrival_clock = ArrivalClock::kAbsoluteTime;

  // What a converged heartbeat collector would report. The estimator
  // divides interruption counts by observed *uptime*, which recovers the
  // injection-model lambda under either arrival clock, so this is the
  // ground-truth parameters.
  avail::InterruptionParams observed_params() const;

  // Service-time distribution for kModel. Null means exponential(mu).
  avail::DistributionPtr service_time;

  // Down intervals for kReplay, sorted, non-overlapping.
  std::vector<trace::DownInterval> down_intervals;

  // Link speeds (bits/second).
  double uplink_bps = common::mbps(8);
  double downlink_bps = common::mbps(8);

  // Fault-domain path (site ⊃ rack ⊃ node). Racks are globally numbered
  // (the leaf fault domain); all zero on clusters built without a
  // DomainLayout, which FaultDomains::from_cluster treats as flat.
  std::uint32_t site = 0;
  std::uint32_t rack = 0;

  bool interruptible() const { return mode != AvailabilityMode::kAlwaysUp; }
};

std::string describe(const NodeSpec& spec);

}  // namespace adapt::cluster
