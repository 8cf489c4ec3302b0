// Rebalancer pending-move protocol: begin/commit/abort state machine,
// rebalance_file plan semantics (metadata untouched until commit), the
// dead-node sweep of in-flight moves, and the client-side
// liveness fixes (cp source selection, charge_transfer guards).
#include <gtest/gtest.h>

#include <set>

#include "common/units.h"
#include "hdfs/client.h"
#include "hdfs/namenode.h"
#include "placement/adapt_policy.h"
#include "placement/random_policy.h"

namespace {

using namespace adapt;
using namespace adapt::hdfs;
using adapt::common::Rng;

// One file, one block, replica on node 0 of a 4-node cluster.
struct MoveFixture {
  NameNode nn{4};
  BlockId block = 0;

  MoveFixture() {
    Rng rng(1);
    std::vector<double> et = {1.0, 100.0, 100.0, 100.0};
    const FileId id =
        nn.create_file("f", 1, 1, placement::make_adapt_policy(et, 1), rng);
    block = nn.file(id).blocks[0];
    EXPECT_EQ(nn.block(block).replicas, std::vector<cluster::NodeIndex>{0});
  }
};

TEST(PendingMove, BeginReservesSpaceWithoutPublishingReplica) {
  MoveFixture f;
  f.nn.begin_move(f.block, 0, 2);
  // No readable replica at the destination...
  EXPECT_EQ(f.nn.block(f.block).replicas,
            std::vector<cluster::NodeIndex>{0});
  // ...but the move is visible as pending.
  EXPECT_TRUE(f.nn.has_pending_move(f.block, 0, 2));
  ASSERT_EQ(f.nn.pending_moves().size(), 1u);
  EXPECT_EQ(f.nn.pending_moves()[0].to, 2u);
}

TEST(PendingMove, CommitFlipsMetadataOnce) {
  MoveFixture f;
  f.nn.begin_move(f.block, 0, 2);
  f.nn.commit_move(f.block, 0, 2);
  // The replica moved, not doubled.
  EXPECT_EQ(f.nn.block(f.block).replicas,
            std::vector<cluster::NodeIndex>{2});
  EXPECT_TRUE(f.nn.pending_moves().empty());
  // Committing again is a protocol violation.
  EXPECT_THROW(f.nn.commit_move(f.block, 0, 2), std::logic_error);
}

TEST(PendingMove, AbortReleasesReservation) {
  MoveFixture f;
  f.nn.begin_move(f.block, 0, 2);
  f.nn.abort_move(f.block, 0, 2);
  EXPECT_TRUE(f.nn.pending_moves().empty());
  EXPECT_EQ(f.nn.block(f.block).replicas,
            std::vector<cluster::NodeIndex>{0});
  EXPECT_FALSE(f.nn.has_pending_move(f.block, 0, 2));
  EXPECT_THROW(f.nn.abort_move(f.block, 0, 2), std::logic_error);
}

TEST(PendingMove, BeginValidatesEndpoints) {
  MoveFixture f;
  // Source must hold the block.
  EXPECT_THROW(f.nn.begin_move(f.block, 1, 2), std::logic_error);
  // Destination must not already hold it.
  f.nn.add_replica(f.block, 3);
  EXPECT_THROW(f.nn.begin_move(f.block, 0, 3), std::logic_error);
  // Destination must not already be a pending target for the block.
  f.nn.begin_move(f.block, 0, 2);
  EXPECT_THROW(f.nn.begin_move(f.block, 3, 2), std::logic_error);
  // Dead destinations are rejected.
  f.nn.mark_node_dead(1);
  EXPECT_THROW(f.nn.begin_move(f.block, 0, 1), std::logic_error);
}

TEST(PendingMove, CommitToleratesSourceWrittenOffByDeath) {
  MoveFixture f;
  f.nn.begin_move(f.block, 0, 2);
  // The source dies mid-transfer; its replica is written off but the
  // outbound move survives (the bytes may already be on the wire from
  // another holder).
  f.nn.mark_node_dead(0);
  EXPECT_TRUE(f.nn.has_pending_move(f.block, 0, 2));
  f.nn.commit_move(f.block, 0, 2);
  EXPECT_EQ(f.nn.block(f.block).replicas,
            std::vector<cluster::NodeIndex>{2});
}

TEST(PendingMove, DeadDestinationSweepsItsPendingMoves) {
  MoveFixture f;
  f.nn.begin_move(f.block, 0, 2);
  f.nn.mark_node_dead(2);
  // The move was dropped with the death.
  EXPECT_FALSE(f.nn.has_pending_move(f.block, 0, 2));
  EXPECT_TRUE(f.nn.pending_moves().empty());
  // Node 2 never held the block, so the revive restores nothing there.
  f.nn.revive_node(2);
  EXPECT_TRUE(f.nn.pending_moves().empty());
  EXPECT_EQ(f.nn.block(f.block).replicas,
            std::vector<cluster::NodeIndex>{0});
}

TEST(PendingMove, CommitWithReplicaAlreadyAtDestinationReleasesOnly) {
  // Re-replication can land its own copy at the migration's destination
  // while the move is on the wire; the commit must then only drop the
  // pending move instead of double-registering the replica.
  MoveFixture f;
  f.nn.begin_move(f.block, 0, 2);
  f.nn.add_replica(f.block, 2);  // concurrent pipeline's copy
  f.nn.commit_move(f.block, 0, 2);
  const std::vector<cluster::NodeIndex> expect = {0, 2};
  EXPECT_EQ(f.nn.block(f.block).replicas, expect);
  EXPECT_TRUE(f.nn.pending_moves().empty());
}

TEST(PendingMove, PendingTargetExcludedFromNewReplicaEligibility) {
  MoveFixture f;
  f.nn.begin_move(f.block, 0, 2);
  const cluster::NodeMask eligible =
      f.nn.eligibility_for_new_replica(f.block);
  EXPECT_FALSE(eligible.test(0));  // holder
  EXPECT_FALSE(eligible.test(2));  // pending target
  EXPECT_TRUE(eligible.test(1));
  EXPECT_TRUE(eligible.test(3));
}

TEST(Rebalance, PlanIsPendingUntilCommitted) {
  NameNode nn(6);
  Rng rng(5);
  const FileId id =
      nn.create_file("f", 40, 1, placement::make_random_policy(6), rng);
  std::vector<double> et(6, 100.0);
  et[0] = 1.0;
  const auto before = nn.file_distribution(id);
  const auto moves =
      nn.rebalance_file(id, placement::make_adapt_policy(et, 40), rng);
  ASSERT_FALSE(moves.empty());
  // Plan only: metadata identical, every move registered as pending.
  EXPECT_EQ(nn.file_distribution(id), before);
  EXPECT_EQ(nn.pending_moves().size(), moves.size());
  for (const ReplicaMove& move : moves) {
    EXPECT_TRUE(nn.has_pending_move(move.block, move.from, move.to));
  }
  // Aborting the whole plan leaves nothing pending and the metadata
  // as it was.
  for (const ReplicaMove& move : moves) {
    nn.abort_move(move.block, move.from, move.to);
  }
  EXPECT_EQ(nn.file_distribution(id), before);
  EXPECT_TRUE(nn.pending_moves().empty());
}

TEST(Rebalance, FilterExcludingAllButHoldersKeepsEveryReplica) {
  // Regression for the eligible.set(old_node) escape hatch: when the
  // filter bans every node except the current holders, each draw can
  // only return the replica's own node — no moves, nothing lost.
  NameNode nn(6);
  Rng rng(11);
  const FileId id =
      nn.create_file("f", 30, 2, placement::make_random_policy(6), rng);
  const auto before = nn.file_distribution(id);
  std::set<cluster::NodeIndex> holders;
  for (const BlockId b : nn.file(id).blocks) {
    for (const cluster::NodeIndex n : nn.block(b).replicas) {
      holders.insert(n);
    }
  }
  std::vector<double> et(6, 1.0);  // any policy; the filter dominates
  const auto moves = nn.rebalance_file(
      id, placement::make_adapt_policy(et, 30), rng,
      [&](cluster::NodeIndex n) { return holders.count(n) > 0; });
  // A holder of block A may be drawn for block B it doesn't hold, so
  // moves between holders are legal — but no replica may leave the
  // holder set, and an all-banned draw must keep the replica in place.
  for (const ReplicaMove& move : moves) {
    EXPECT_TRUE(holders.count(move.to) > 0);
    nn.commit_move(move.block, move.from, move.to);
  }
  EXPECT_TRUE(nn.pending_moves().empty());
  for (const BlockId b : nn.file(id).blocks) {
    EXPECT_EQ(nn.block(b).replicas.size(), 2u);
    for (const cluster::NodeIndex n : nn.block(b).replicas) {
      EXPECT_TRUE(holders.count(n) > 0);
    }
  }
  (void)before;
}

TEST(Rebalance, FilterBanningEverythingIsANoOp) {
  NameNode nn(4);
  Rng rng(12);
  const FileId id =
      nn.create_file("f", 20, 2, placement::make_random_policy(4), rng);
  const auto before = nn.file_distribution(id);
  std::vector<double> et(4, 1.0);
  const auto moves =
      nn.rebalance_file(id, placement::make_adapt_policy(et, 20), rng,
                        [](cluster::NodeIndex) { return false; });
  EXPECT_TRUE(moves.empty());
  EXPECT_TRUE(nn.pending_moves().empty());
  EXPECT_EQ(nn.file_distribution(id), before);
}

TEST(Rebalance, FidelityCapRespectedByPlan) {
  NameNode::Options options;
  options.fidelity_cap = true;
  NameNode nn(4, options);
  Rng rng(13);
  const FileId id =
      nn.create_file("f", 40, 1, placement::make_random_policy(4), rng);
  // Extreme weights: without the cap everything would pile on node 0.
  std::vector<double> et = {1.0, 1e6, 1e6, 1e6};
  const auto moves =
      nn.rebalance_file(id, placement::make_adapt_policy(et, 40), rng);
  for (const ReplicaMove& move : moves) {
    nn.commit_move(move.block, move.from, move.to);
  }
  // Cap = ceil(m(k+1)/n) = ceil(40*2/4) = 20.
  const auto dist = nn.file_distribution(id);
  for (const std::uint64_t c : dist) EXPECT_LE(c, 20u);
}

// ---------------------------------------------------------------------
// Client liveness fixes
// ---------------------------------------------------------------------

struct ClientLivenessFixture : ::testing::Test {
  ClientLivenessFixture()
      : namenode_(4),
        network_(make_network()),
        client_(namenode_, placement::make_random_policy(4),
                placement::make_adapt_policy({1.0, 1.0, 10.0, 10.0}, 40),
                &network_, 64 * common::kMiB),
        rng_(23) {}

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

TEST_F(ClientLivenessFixture, CpSkipsDeadSourceHolders) {
  client_.copy_from_local("src", 12, 2, false, rng_);
  // Kill one holder of every block: round-robin source selection must
  // never pick it.
  const FileId src_id = namenode_.file_id("src");
  const cluster::NodeIndex victim = namenode_.block(
      namenode_.file(src_id).blocks[0]).replicas[0];
  namenode_.mark_node_dead(victim);
  TransferSummary summary;
  const FileId dst = client_.cp("src", "dst", false, rng_, 0.0, &summary,
                                [&](cluster::NodeIndex n) {
                                  return n != victim;
                                });
  EXPECT_EQ(namenode_.file(dst).blocks.size(), 12u);
  // Every destination replica was fed round-robin from the block's live
  // holders (or already held the block), so no transfer was refused for
  // a dead endpoint: each copy with distinct endpoints was charged.
  std::uint64_t expected = 0;
  for (std::size_t b = 0; b < 12; ++b) {
    std::vector<cluster::NodeIndex> live;
    for (const cluster::NodeIndex holder :
         namenode_.block(namenode_.file(src_id).blocks[b]).replicas) {
      if (holder != victim) live.push_back(holder);
    }
    ASSERT_FALSE(live.empty());
    const auto& to = namenode_.block(namenode_.file(dst).blocks[b]).replicas;
    for (std::size_t r = 0; r < to.size(); ++r) {
      if (live[r % live.size()] != to[r]) ++expected;
    }
  }
  EXPECT_EQ(summary.blocks_moved, expected);
}

TEST_F(ClientLivenessFixture, CpFallsBackToOriginWhenAllHoldersDown) {
  client_.copy_from_local("src", 1, 1, false, rng_);
  const FileId src_id = namenode_.file_id("src");
  const cluster::NodeIndex holder =
      namenode_.block(namenode_.file(src_id).blocks[0]).replicas[0];
  // The block's only holder is dead but the destinations stay live, so
  // the copy streams from the origin instead of a dead node.
  namenode_.mark_node_dead(holder);
  TransferSummary summary;
  const FileId dst = client_.cp("src", "dst", false, rng_, 0.0, &summary,
                                [holder](cluster::NodeIndex n) {
                                  return n != holder;
                                });
  EXPECT_EQ(namenode_.file(dst).blocks.size(), 1u);
  EXPECT_EQ(summary.blocks_moved, 1u);
}

TEST_F(ClientLivenessFixture, AdaptRebalanceCommitsOnlyChargedMoves) {
  client_.copy_from_local("f", 40, 1, false, rng_);
  const auto before = namenode_.file_distribution(namenode_.file_id("f"));
  const TransferSummary summary = client_.adapt_rebalance("f", rng_);
  // The fixture's ADAPT policy weights nodes 0/1 (E[T] 1 vs 10).
  const auto after = namenode_.file_distribution(namenode_.file_id("f"));
  EXPECT_GT(after[0] + after[1], before[0] + before[1]);
  // Every move either committed (metadata flipped) or aborted (pending
  // list empty either way).
  EXPECT_TRUE(namenode_.pending_moves().empty());
  EXPECT_GT(summary.blocks_moved, 0u);
}

}  // namespace
