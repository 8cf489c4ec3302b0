// Mini-HDFS: NameNode metadata, the dead-node registry, client operations.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/units.h"
#include "hdfs/client.h"
#include "hdfs/namenode.h"
#include "placement/adapt_policy.h"
#include "placement/random_policy.h"

namespace {

using namespace adapt;
using namespace adapt::hdfs;
using adapt::common::Rng;

// Replicas in the block map, over every block.
std::uint64_t replica_count(const NameNode& nn) {
  std::uint64_t total = 0;
  for (BlockId b = 0; b < nn.block_count(); ++b) {
    total += nn.block(b).replicas.size();
  }
  return total;
}

TEST(NameNode, CreateFilePlacesDistinctReplicas) {
  NameNode nn(8);
  Rng rng(3);
  const FileId id = nn.create_file("f", 50, 3,
                                   placement::make_random_policy(8), rng);
  EXPECT_TRUE(nn.has_file("f"));
  EXPECT_EQ(nn.file(id).blocks.size(), 50u);
  for (const BlockId b : nn.file(id).blocks) {
    const BlockInfo& info = nn.block(b);
    ASSERT_EQ(info.replicas.size(), 3u);
    const std::set<cluster::NodeIndex> distinct(info.replicas.begin(),
                                                info.replicas.end());
    EXPECT_EQ(distinct.size(), 3u);
  }
  EXPECT_EQ(replica_count(nn), 150u);
}

TEST(NameNode, FailedCreateRollsBackAllPartialState) {
  // Replication 2 on a 2-node cluster where the filter bans node 1: the
  // second replica of block 0 has no eligible home, so the create must
  // fail — and leave the namespace exactly as it found it. Eligibility
  // is fixed for the call, so it fails on the first block.
  NameNode nn(2);
  Rng rng(7);
  const auto only_node0 = [](cluster::NodeIndex n) { return n == 0; };
  EXPECT_THROW(nn.create_file("f", 4, 2, placement::make_random_policy(2),
                              rng, only_node0),
               std::runtime_error);
  EXPECT_FALSE(nn.has_file("f"));
  EXPECT_EQ(nn.block_count(), 0u);
  // The name is free for a clean retry.
  const FileId id =
      nn.create_file("f", 4, 2, placement::make_random_policy(2), rng);
  EXPECT_EQ(nn.file(id).blocks.size(), 4u);
  EXPECT_EQ(replica_count(nn), 8u);
}

TEST(NameNode, MarkNodeDeadWritesOffReplicasOnce) {
  NameNode nn(3);
  Rng rng(5);
  const FileId id =
      nn.create_file("f", 6, 2, placement::make_random_policy(3), rng);
  const auto before = nn.file_distribution(id);
  const auto affected = nn.mark_node_dead(0);
  EXPECT_TRUE(nn.is_dead(0));
  EXPECT_EQ(affected.size(), before[0]);
  EXPECT_EQ(nn.file_distribution(id)[0], 0u);
  EXPECT_EQ(replica_count(nn), 12u - before[0]);
  // Each affected block lost exactly its node-0 replica.
  for (const BlockId b : affected) {
    for (const auto n : nn.block(b).replicas) EXPECT_NE(n, 0u);
  }
  // Idempotent: a second declaration returns nothing.
  EXPECT_TRUE(nn.mark_node_dead(0).empty());
}

// What mark_node_dead must return for `node`: every block it holds, in
// ascending order, by a scan over every block.
std::vector<BlockId> blocks_held_by(const NameNode& nn,
                                    cluster::NodeIndex node) {
  std::vector<BlockId> held;
  for (BlockId b = 0; b < nn.block_count(); ++b) {
    if (nn.block(b).hosted_on(node)) held.push_back(b);
  }
  return held;
}

bool has_drop(const NameNode::ReviveReport& report, BlockId block,
              cluster::NodeIndex node) {
  for (const NameNode::ReplicaDrop& drop : report.trimmed) {
    if (drop.block == block && drop.node == node) return true;
  }
  return false;
}

// mark_node_dead reads per-node block lists that the first death builds
// and every replica mutation after it keeps current. After each kind of
// mutation, and through a seeded random sequence of all of them, every
// death must return exactly what a full scan finds, and the placement
// mask must be exactly the nodes not declared dead. Two racks let
// revive_node take its swap branch.
TEST(NameNode, MarkNodeDeadMatchesAFullScan) {
  constexpr std::size_t kNodes = 8;
  NameNode nn(kNodes);
  nn.set_fault_domains(
      std::make_shared<const cluster::FaultDomains>(
          std::vector<std::uint32_t>{0, 0, 0, 0, 1, 1, 1, 1},
          std::vector<std::uint32_t>{}),
      /*anti_affine=*/false);
  const auto policy = placement::make_random_policy(kNodes);
  Rng rng(21);
  const auto pick = [&rng](const cluster::NodeMask& mask) {
    return static_cast<cluster::NodeIndex>(
        mask.nth_set(rng.uniform_index(mask.count())));
  };
  // The nodes declared dead so far, kept apart from the NameNode.
  cluster::NodeMask dead(kNodes);
  const auto expect_mask = [&](const char* what) {
    cluster::NodeMask live(kNodes, true);
    live.and_not(dead);
    EXPECT_EQ(nn.placement_mask().words(), live.words()) << what;
  };
  int deaths = 0;
  const auto kill = [&](cluster::NodeIndex node) {
    const std::vector<BlockId> expected = blocks_held_by(nn, node);
    EXPECT_EQ(nn.mark_node_dead(node), expected) << "death " << deaths;
    ++deaths;
    dead.set(node);
    expect_mask("after a death");
  };
  const auto revive = [&](cluster::NodeIndex node) {
    NameNode::ReviveReport report = nn.revive_node(node);
    dead.reset(node);
    expect_mask("after a revive");
    return report;
  };
  const auto set_holders = [&nn](BlockId block,
                                 std::vector<cluster::NodeIndex> holders) {
    const std::vector<cluster::NodeIndex> old = nn.block(block).replicas;
    for (const cluster::NodeIndex n : old) nn.remove_replica(block, n);
    for (const cluster::NodeIndex n : holders) nn.add_replica(block, n);
  };

  const FileId a = nn.create_file("a", 10, 2, policy, rng);
  kill(0);  // builds the lists
  EXPECT_FALSE(revive(0).restored.empty());

  // Revive restores, trims its own redundant copy and swaps a holder.
  // c0 sits on racks 0 and 1 and gets a second rack-0 copy while node 6
  // is dead: node 6's copy replaces one of the pair. c1 gets its second
  // copy on rack 1, so node 6's copy is the redundant one.
  const FileId c = nn.create_file("c", 2, 2, policy, rng);
  const BlockId c0 = nn.file(c).blocks[0];
  const BlockId c1 = nn.file(c).blocks[1];
  set_holders(c0, {2, 6});
  set_holders(c1, {4, 6});
  kill(6);
  nn.add_replica(c0, 3);
  nn.add_replica(c1, 5);
  const NameNode::ReviveReport report = revive(6);
  EXPECT_TRUE(has_drop(report, c0, 2));
  EXPECT_TRUE(has_drop(report, c1, 6));
  kill(2);
  kill(6);  // a second death of a revived node
  revive(2);
  revive(6);

  // A create after the lists exist.
  nn.create_file("b", 6, 2, policy, rng);
  kill(1);

  // add_replica and remove_replica.
  const BlockId a0 = nn.file(a).blocks[0];
  nn.remove_replica(a0, nn.block(a0).replicas[0]);
  nn.add_replica(a0, pick(nn.eligibility_for_new_replica(a0)));
  kill(nn.block(a0).replicas.back());

  // A committed move, and one whose source is written off mid-move.
  for (const BlockId block : {nn.file(a).blocks[1], nn.file(a).blocks[2]}) {
    const cluster::NodeIndex from = nn.block(block).replicas[0];
    const cluster::NodeIndex to = pick(nn.eligibility_for_new_replica(block));
    nn.begin_move(block, from, to);
    if (block == nn.file(a).blocks[2]) kill(from);
    nn.commit_move(block, from, to);
    kill(to);
  }

  // A seeded mix of every mutation, deaths and revivals.
  int files = 0;
  for (int step = 0; step < 400; ++step) {
    const BlockId block = rng.uniform_index(nn.block_count());
    const std::vector<cluster::NodeIndex> holders = nn.block(block).replicas;
    const cluster::NodeMask eligible = nn.eligibility_for_new_replica(block);
    switch (rng.uniform_index(6)) {
      case 0:
        if (eligible.any()) nn.add_replica(block, pick(eligible));
        break;
      case 1:
        if (!holders.empty()) {
          nn.remove_replica(block,
                            holders[rng.uniform_index(holders.size())]);
        }
        break;
      case 2:
        if (!holders.empty() && eligible.any()) {
          const cluster::NodeIndex from =
              holders[rng.uniform_index(holders.size())];
          const cluster::NodeIndex to = pick(eligible);
          nn.begin_move(block, from, to);
          nn.commit_move(block, from, to);
        }
        break;
      case 3:
        if (dead.count() < kNodes / 2) {
          cluster::NodeMask live(kNodes, true);
          live.and_not(dead);
          kill(pick(live));
        }
        break;
      case 4:
        if (dead.any()) revive(pick(dead));
        break;
      default:
        nn.create_file(std::to_string(files++),
                       1 + static_cast<std::uint32_t>(rng.uniform_index(4)),
                       2, policy, rng);
        break;
    }
  }
  for (std::size_t n = 0; n < kNodes; ++n) {
    const auto node = static_cast<cluster::NodeIndex>(n);
    if (dead.test(node)) revive(node);
    kill(node);
  }
  EXPECT_GT(deaths, 30);
}

TEST(NameNode, DeadNodeIneligibleUntilRevived) {
  NameNode nn(2);
  Rng rng(9);
  nn.mark_node_dead(0);
  const FileId id =
      nn.create_file("f", 8, 1, placement::make_random_policy(2), rng);
  EXPECT_EQ(nn.file_distribution(id)[0], 0u);  // all on node 1
  nn.revive_node(0);
  EXPECT_FALSE(nn.is_dead(0));
  const FileId id2 =
      nn.create_file("g", 8, 2, placement::make_random_policy(2), rng);
  // Replication 2 on 2 nodes needs both: node 0 is placeable again.
  EXPECT_EQ(nn.file_distribution(id2)[0], 8u);
}

TEST(NameNode, FileDistributionSumsToReplicaCount) {
  NameNode nn(4);
  Rng rng(4);
  const FileId id = nn.create_file("f", 40, 2,
                                   placement::make_random_policy(4), rng);
  const auto dist = nn.file_distribution(id);
  std::uint64_t total = 0;
  for (const std::uint64_t c : dist) total += c;
  EXPECT_EQ(total, 80u);
}

// A wildly skewed policy: node 0 absorbs nearly all weight.
placement::PolicyPtr skewed_policy(std::size_t nodes, std::uint64_t blocks) {
  std::vector<double> et(nodes, 1000.0);
  et[0] = 1.0;
  return placement::make_adapt_policy(et, blocks);
}

TEST(NameNode, FidelityCapBoundsSkew) {
  NameNode::Options options;
  options.fidelity_cap = true;
  NameNode nn(8, options);
  Rng rng(5);
  const FileId id = nn.create_file("f", 80, 1, skewed_policy(8, 80), rng);
  // Threshold: ceil(80 * 2 / 8) = 20.
  EXPECT_EQ(nn.file_distribution(id)[0], 20u);
}

// The Section IV-C cap is applied by the NameNode, per load.
TEST(CappedPolicy, NeverExceedsCap) {
  // A cap of 30 on 3 nodes: node 0 is capped, placements spill to the
  // others, and the load overflows past the cap only once every node
  // is at it — so the first 90 blocks fill each node to exactly 30.
  NameNode::Options options;
  options.fidelity_cap = true;
  options.cap_override = 30;
  NameNode nn(3, options);
  Rng rng(12);
  const FileId id = nn.create_file("f", 100, 1, skewed_policy(3, 100), rng);
  std::vector<std::uint64_t> first(3, 0);
  for (std::size_t b = 0; b < 90; ++b) {
    ++first[nn.block(nn.file(id).blocks[b]).replicas[0]];
  }
  EXPECT_EQ(first, (std::vector<std::uint64_t>{30, 30, 30}));
  EXPECT_EQ(replica_count(nn), 100u);
}

TEST(CappedPolicy, ZeroCapDisables) {
  // The same load with the cap off: node 0 takes the skew unbounded.
  NameNode nn(3);
  Rng rng(12);
  const FileId id = nn.create_file("f", 100, 1, skewed_policy(3, 100), rng);
  EXPECT_GT(nn.file_distribution(id)[0], 90u);
}

TEST(NameNode, FilterRestrictsPlacement) {
  NameNode nn(4);
  Rng rng(6);
  const FileId id = nn.create_file(
      "f", 20, 1, placement::make_random_policy(4), rng,
      [](cluster::NodeIndex node) { return node != 2; });
  EXPECT_EQ(nn.file_distribution(id)[2], 0u);
}

TEST(NameNode, Validation) {
  NameNode nn(3);
  Rng rng(7);
  const auto policy = placement::make_random_policy(3);
  EXPECT_THROW(nn.create_file("f", 0, 1, policy, rng),
               std::invalid_argument);
  EXPECT_THROW(nn.create_file("f", 5, 0, policy, rng),
               std::invalid_argument);
  EXPECT_THROW(nn.create_file("f", 5, 4, policy, rng),
               std::invalid_argument);
  nn.create_file("f", 5, 1, policy, rng);
  EXPECT_THROW(nn.create_file("f", 5, 1, policy, rng),
               std::invalid_argument);
  EXPECT_THROW(nn.file_id("missing"), std::out_of_range);
  // Impossible placement: every node filtered out.
  EXPECT_THROW(
      nn.create_file("g", 1, 1, policy, rng,
                     [](cluster::NodeIndex) { return false; }),
      std::runtime_error);
}

TEST(NameNode, ReplicaMutation) {
  NameNode nn(3);
  Rng rng(8);
  const FileId id = nn.create_file("f", 1, 1,
                                   placement::make_random_policy(3), rng);
  const BlockId block = nn.file(id).blocks[0];
  const cluster::NodeIndex holder = nn.block(block).replicas[0];
  const cluster::NodeIndex other = holder == 0 ? 1 : 0;
  nn.add_replica(block, other);
  EXPECT_EQ(nn.block(block).replicas.size(), 2u);
  // Duplicate insert dedupes (counted), never double-registers a holder.
  nn.add_replica(block, other);
  EXPECT_EQ(nn.block(block).replicas.size(), 2u);
  EXPECT_EQ(nn.stats().duplicate_replica_inserts, 1u);
  nn.remove_replica(block, holder);
  EXPECT_EQ(nn.block(block).replicas.size(), 1u);
  EXPECT_THROW(nn.remove_replica(block, holder), std::logic_error);
}

TEST(NameNode, RebalanceMovesTowardAdaptDistribution) {
  NameNode nn(6);
  Rng rng(9);
  const FileId id = nn.create_file("f", 300, 1,
                                   placement::make_random_policy(6), rng);
  // ADAPT target: node 0 is far faster than the rest.
  std::vector<double> et(6, 100.0);
  et[0] = 10.0;
  const auto adapt_policy = placement::make_adapt_policy(et, 300);
  const auto before = nn.file_distribution(id);
  const auto moves = nn.rebalance_file(id, adapt_policy, rng);
  EXPECT_FALSE(moves.empty());
  // The plan is *pending*: metadata doesn't flip until each move's
  // bytes have landed and the caller commits it.
  EXPECT_EQ(nn.file_distribution(id), before);
  EXPECT_EQ(nn.pending_moves().size(), moves.size());
  for (const ReplicaMove& move : moves) {
    EXPECT_NE(move.from, move.to);
    nn.commit_move(move.block, move.from, move.to);
  }
  const auto after = nn.file_distribution(id);
  EXPECT_GT(after[0], before[0]);
  EXPECT_TRUE(nn.pending_moves().empty());
  // Replica counts conserved.
  std::uint64_t total = 0;
  for (const std::uint64_t c : after) total += c;
  EXPECT_EQ(total, 300u);
}

TEST(NameNode, RebalanceKeepsReplicasDistinct) {
  NameNode nn(4);
  Rng rng(10);
  const FileId id = nn.create_file("f", 50, 2,
                                   placement::make_random_policy(4), rng);
  std::vector<double> et = {1.0, 1.0, 50.0, 50.0};
  const auto moves =
      nn.rebalance_file(id, placement::make_adapt_policy(et, 50), rng);
  for (const ReplicaMove& move : moves) {
    nn.commit_move(move.block, move.from, move.to);
  }
  for (const BlockId b : nn.file(id).blocks) {
    const BlockInfo& info = nn.block(b);
    const std::set<cluster::NodeIndex> distinct(info.replicas.begin(),
                                                info.replicas.end());
    EXPECT_EQ(distinct.size(), info.replicas.size());
  }
}

class ClientFixture : public ::testing::Test {
 protected:
  ClientFixture()
      : namenode_(4),
        network_(make_network()),
        client_(namenode_, placement::make_random_policy(4),
                placement::make_adapt_policy({1.0, 1.0, 10.0, 10.0}, 40),
                &network_, 64 * common::kMiB),
        rng_(17) {}

  static cluster::Network make_network() {
    cluster::Network::Config config;
    config.uplink_bps.assign(4, common::mbps(8));
    config.downlink_bps.assign(4, common::mbps(8));
    return cluster::Network(config);
  }

  NameNode namenode_;
  cluster::Network network_;
  Client client_;
  Rng rng_;
};

TEST_F(ClientFixture, CopyFromLocalChargesOriginTransfers) {
  TransferSummary summary;
  const FileId id = client_.copy_from_local("in", 10, 2, false, rng_, 0.0,
                                            &summary);
  EXPECT_EQ(summary.blocks_moved, 20u);
  EXPECT_EQ(summary.bytes_moved, 20ull * 64 * common::kMiB);
  EXPECT_GT(summary.completion_time, 0.0);
  EXPECT_EQ(namenode_.file(id).blocks.size(), 10u);
}

TEST_F(ClientFixture, AdaptFlagSelectsPolicy) {
  Rng rng_a(5);
  Rng rng_b(5);
  const FileId with = client_.copy_from_local("a", 200, 1, true, rng_a);
  const FileId without = client_.copy_from_local("b", 200, 1, false, rng_b);
  const auto da = namenode_.file_distribution(with);
  const auto db = namenode_.file_distribution(without);
  // ADAPT weights point at nodes 0/1; random spreads evenly.
  EXPECT_GT(da[0] + da[1], 150u);
  EXPECT_NEAR(static_cast<double>(db[0] + db[1]), 100.0, 35.0);
}

TEST_F(ClientFixture, CpDuplicatesFile) {
  client_.copy_from_local("src", 10, 1, false, rng_);
  TransferSummary summary;
  const FileId dst = client_.cp("src", "dst", true, rng_, 0.0, &summary);
  EXPECT_EQ(namenode_.file(dst).blocks.size(), 10u);
  EXPECT_TRUE(namenode_.has_file("dst"));
  EXPECT_LE(summary.blocks_moved, 10u);  // same-node copies are free
}

TEST_F(ClientFixture, AdaptRebalanceReportsMoves) {
  client_.copy_from_local("f", 100, 1, false, rng_);
  const TransferSummary summary = client_.adapt_rebalance("f", rng_);
  EXPECT_GT(summary.blocks_moved, 0u);
  // The fixture's ADAPT policy has E[T] = {1, 1, 10, 10}: weight flows
  // to nodes 0 and 1.
  const auto dist = namenode_.file_distribution(namenode_.file_id("f"));
  EXPECT_GT(dist[0] + dist[1], dist[2] + dist[3]);
}

}  // namespace
