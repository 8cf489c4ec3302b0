// HDFS-shell scenario: the three ADAPT client interfaces of Section
// IV-A, exercised directly against the mini-HDFS.
//
//  * copyFromLocal (stock)  — blocks land uniformly at random
//  * adapt <file>           — redistribute in place, availability-aware
//  * cp -adapt <src> <dst>  — availability-aware copy
//
// Prints the per-node block distribution after each step, with the
// transfer bill the operation incurred.
//
//   ./rebalance [--nodes N] [--blocks M] [--seed S]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "cluster/topology.h"
#include "common/config.h"
#include "core/adapt.h"
#include "hdfs/client.h"
#include "placement/random_policy.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;

void print_distribution(const char* label, const hdfs::NameNode& nn,
                        const std::string& file,
                        const cluster::Cluster& cluster) {
  const auto dist = nn.file_distribution(nn.file_id(file));
  std::printf("%-34s", label);
  std::uint64_t interrupted = 0;
  std::uint64_t dedicated = 0;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    (cluster.nodes[i].interruptible() ? interrupted : dedicated) += dist[i];
  }
  std::printf(" %5llu blocks on volatile nodes, %5llu on dedicated\n",
              static_cast<unsigned long long>(interrupted),
              static_cast<unsigned long long>(dedicated));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  cluster::EmulationConfig emu;
  emu.node_count = static_cast<std::size_t>(flags.get_int("nodes", 64));
  emu.interrupted_ratio = 0.5;
  const auto blocks =
      static_cast<std::uint32_t>(flags.get_int("blocks", 1280));
  common::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 9)));

  const cluster::Cluster cluster = cluster::emulated_cluster(emu);
  const workload::Workload workload = workload::emulation_workload();

  hdfs::NameNode::Options options;
  options.fidelity_cap = true;  // Section IV-C threshold
  hdfs::NameNode namenode(cluster.size(), options);

  cluster::Network network(cluster.network_config());

  const auto adapt_policy = core::make_policy(
      core::PolicyKind::kAdapt, cluster.params(), workload.gamma(), blocks);
  hdfs::Client client(namenode, placement::make_random_policy(cluster.size()),
                      adapt_policy, &network, cluster.block_size_bytes);

  std::printf("$ hdfs dfs -copyFromLocal big.dat /input   "
              "# stock random placement\n");
  hdfs::TransferSummary load;
  client.copy_from_local("/input", blocks, 1, /*adapt_enabled=*/false, rng,
                         0.0, &load);
  print_distribution("  /input:", namenode, "/input", cluster);
  std::printf("  loaded %llu blocks, last transfer lands at %s\n\n",
              static_cast<unsigned long long>(load.blocks_moved),
              common::format_seconds(load.completion_time).c_str());

  std::printf("$ hdfs dfs -adapt /input                   "
              "# redistribute availability-aware\n");
  const hdfs::TransferSummary moves = client.adapt_rebalance("/input", rng);
  print_distribution("  /input:", namenode, "/input", cluster);
  std::printf("  moved %llu blocks (%s) to reshape the distribution\n\n",
              static_cast<unsigned long long>(moves.blocks_moved),
              common::format_bytes(moves.bytes_moved).c_str());

  std::printf("$ hdfs dfs -cp -adapt /input /input2       "
              "# availability-aware copy\n");
  hdfs::TransferSummary copy;
  client.cp("/input", "/input2", /*adapt_enabled=*/true, rng, 0.0, &copy);
  print_distribution("  /input2:", namenode, "/input2", cluster);
  std::printf("  copied with %llu cross-node transfers\n\n",
              static_cast<unsigned long long>(copy.blocks_moved));

  // Disk skew, max stored / mean stored over both files: the statistic
  // the fidelity cap bounds.
  std::vector<std::uint64_t> stored(cluster.size(), 0);
  std::uint64_t total = 0;
  for (const char* file : {"/input", "/input2"}) {
    const auto dist = namenode.file_distribution(namenode.file_id(file));
    for (std::size_t i = 0; i < dist.size(); ++i) {
      stored[i] += dist[i];
      total += dist[i];
    }
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(stored.size());
  std::printf("storage skew after all operations: %.2fx the mean "
              "(fidelity cap m(k+1)/n active)\n",
              static_cast<double>(
                  *std::max_element(stored.begin(), stored.end())) /
                  mean);
  return 0;
}
