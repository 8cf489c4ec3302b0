// Storage-efficiency scenario: the paper's central trade-off — can
// availability-aware placement with fewer replicas match the reliability
// cushion of blind replication?
//
// Sweeps replication 1..3 for random and ADAPT placement on the emulated
// volatile cluster and reports elapsed time next to the storage bill.
//
//   ./storage_efficiency [--nodes N] [--runs R] [--seed S]
#include <cstdio>

#include "common/config.h"
#include "common/table.h"
#include "core/adapt.h"
#include "runner/runner.h"
#include "workload/terasort.h"

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  cluster::EmulationConfig emu;
  emu.node_count = static_cast<std::size_t>(flags.get_int("nodes", 128));
  const int runs = static_cast<int>(flags.get_int("runs", 5));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));

  const cluster::Cluster cluster = cluster::emulated_cluster(emu);
  const workload::Workload workload = workload::emulation_workload();

  core::ExperimentConfig config;
  config.blocks = workload.blocks_for(cluster.size());
  config.job.gamma = workload.gamma();
  config.seed = seed;

  const double gib = static_cast<double>(config.blocks) *
                     static_cast<double>(cluster.block_size_bytes) /
                     static_cast<double>(common::kGiB);

  // Each run's seed derives from --seed and the run's index; one worker
  // keeps the example single-threaded.
  runner::ExperimentRunner exec(1);
  common::Table table({"placement", "replicas", "storage", "elapsed (s)",
                       "locality"});
  struct Row {
    core::PolicyKind policy;
    int replication;
  };
  for (const Row row : {Row{core::PolicyKind::kRandom, 1},
                        Row{core::PolicyKind::kRandom, 2},
                        Row{core::PolicyKind::kRandom, 3},
                        Row{core::PolicyKind::kAdapt, 1},
                        Row{core::PolicyKind::kAdapt, 2}}) {
    config.policy = row.policy;
    config.replication = row.replication;
    const core::RepeatedResult r =
        exec.run_replications(cluster, config, runs);
    char storage[32];
    std::snprintf(storage, sizeof storage, "%.0f GiB",
                  gib * row.replication);
    table.add_row({core::to_string(row.policy),
                   std::to_string(row.replication), storage,
                   common::format_double(r.elapsed.mean, 0) + " ±" +
                       common::format_double(r.elapsed.ci95_half_width, 0),
                   common::format_percent(r.locality.mean)});
  }
  std::printf("Storage/latency trade-off on %zu volatile nodes "
              "(%d runs per row):\n\n%s\n",
              cluster.size(), runs, table.to_string().c_str());
  std::printf(
      "The paper's argument: ADAPT with 1 replica approaches stock "
      "placement\nwith 2 replicas while buying back half the storage "
      "bill.\n");
  return 0;
}
