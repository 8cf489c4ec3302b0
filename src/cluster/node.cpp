#include "cluster/node.h"

#include <sstream>

namespace adapt::cluster {

avail::InterruptionParams NodeSpec::observed_params() const {
  // The estimator measures lambda as interruptions per *uptime* second,
  // which recovers the injection-model rate under either arrival clock:
  // uptime-clock inter-arrivals are Exp(lambda) of uptime by
  // construction, and absolute-clock busy periods start at lambda(1-rho)
  // per wall-clock second = lambda per uptime second. So the converged
  // observation is the ground-truth parameters themselves.
  return params;
}

std::string describe(const NodeSpec& spec) {
  std::ostringstream out;
  switch (spec.mode) {
    case AvailabilityMode::kAlwaysUp:
      out << "always-up";
      break;
    case AvailabilityMode::kModel:
      out << "model[" << spec.params.describe();
      if (spec.service_time) out << ", service=" << spec.service_time->describe();
      out << "]";
      break;
    case AvailabilityMode::kReplay:
      out << "replay[" << spec.down_intervals.size() << " intervals, "
          << spec.params.describe() << "]";
      break;
  }
  out << " up=" << common::format_bandwidth(spec.uplink_bps)
      << " down=" << common::format_bandwidth(spec.downlink_bps);
  return out.str();
}

}  // namespace adapt::cluster
