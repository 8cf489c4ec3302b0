// Overhead decomposition of a map phase (paper Section V-C, Figure 5).
//
// The base cost is the aggregate failure-free execution time m * gamma.
// Everything else the cluster spent — node-seconds over the makespan —
// is attributed to:
//   rework    : execution lost to interrupted attempts
//   recovery  : node downtime while the job was running
//   migration : time spent moving blocks (remote fetches, origin
//               re-fetches, rebalance moves)
//   misc      : residual — scheduling gaps, duplicated straggler
//               execution, idle tail at the end of the map phase
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace adapt::sim {

struct OverheadBreakdown {
  double base = 0.0;       // m * gamma, node-seconds
  double rework = 0.0;
  double recovery = 0.0;
  double migration = 0.0;
  double misc = 0.0;       // derived residual, never negative

  common::Seconds elapsed = 0.0;  // map phase makespan
  std::size_t node_count = 0;     // cluster size; a node runs one task

  // Derive misc from the conservation identity
  //   node_count * elapsed = base + rework + recovery + migration + misc
  // clamping tiny negative residue from floating-point accumulation.
  void finalize();

  double total_overhead() const {
    return rework + recovery + migration + misc;
  }

  // Ratios relative to base, as plotted in Figure 5.
  double rework_ratio() const { return base > 0 ? rework / base : 0; }
  double recovery_ratio() const { return base > 0 ? recovery / base : 0; }
  double migration_ratio() const { return base > 0 ? migration / base : 0; }
  double misc_ratio() const { return base > 0 ? misc / base : 0; }
  double total_ratio() const { return base > 0 ? total_overhead() / base : 0; }

  std::string describe() const;
};

}  // namespace adapt::sim
