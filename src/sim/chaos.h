// Chaos-invariant harness: build a randomized gray-failure schedule from
// a seed, run a full churn + recovery job under it, and check the
// invariants that must hold after convergence no matter how the faults
// interleaved:
//
//  * metadata consistency — every block's replica list has no duplicate
//    holders, no holder the NameNode believes dead, and never more
//    copies than the replication target;
//  * loss honesty — a block reported lost still has no live uncorrupted
//    replica registered (the simulator never wrote off data it could
//    have read);
//  * unwind completeness — a task not reported lost is done, and a lost
//    task's block is empty or corrupt-only;
//  * determinism — the same seed reproduces the run byte-for-byte
//    (JSONL trace compare), so every violation is replayable.
//
// The harness is deliberately self-contained (it owns the cluster, the
// NameNode and the schedule) so tests and the chaos_harness example can
// sweep seeds without run_experiment's policy machinery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/mapreduce_sim.h"

namespace adapt::sim {

struct ChaosConfig {
  std::size_t nodes = 24;
  std::uint32_t blocks = 96;
  int replication = 2;
  double gamma = 12.0;
  std::uint64_t seed = 1;
  // The churn rates, detection knobs and gray-failure ceilings the
  // schedule is sampled within are constants in sim/chaos.cpp.

  // Re-run the same schedule and byte-compare the two traces.
  bool check_determinism = true;
};

struct ChaosViolation {
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;
  std::string invariant;  // short machine-usable name
  std::string detail;     // human-readable specifics
  // Offending block for block-scoped invariants (kNoBlock otherwise) —
  // lets the harness print the block's causal lineage chain instead of
  // pointing at a raw trace dump.
  std::uint32_t block = kNoBlock;
};

struct ChaosReport {
  JobResult job;
  // The schedule actually sampled (for reproducing a violation by hand).
  SimJobConfig::ChurnConfig schedule;
  // Full JSONL event trace of the run — dumped as an artifact when an
  // invariant fails so the violation can be replayed offline.
  std::string trace_jsonl;
  // Deterministic loss post-mortem (obs::post_mortem_text over the
  // run's lineage): per-cause counts plus one line per lost block.
  // Same seed must reproduce this byte-for-byte; the CI chaos job
  // diffs it across repeat invocations.
  std::string post_mortem;
  std::vector<ChaosViolation> violations;
  bool ok() const { return violations.empty(); }
};

// Run one randomized chaos schedule and check the invariants.
ChaosReport run_chaos(const ChaosConfig& config);

}  // namespace adapt::sim
