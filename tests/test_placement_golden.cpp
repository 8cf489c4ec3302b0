// Golden values that pin Algorithm 1's hash table and the NameNode's
// replica draws bit for bit: every selection probability, every chain
// length, every sampled node, every placed replica, every pending move
// and the RNG position after each call. A change to either layer that
// claims to be behaviour-preserving must leave all of these untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fault_domains.h"
#include "hdfs/namenode.h"
#include "placement/adapt_policy.h"
#include "placement/hash_table.h"
#include "placement/jump_hash_policy.h"
#include "placement/random_policy.h"

namespace {

using namespace adapt;
using adapt::common::Rng;
using placement::BlockHashTable;
using placement::ChainWeighting;

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull", v);
  return buf;
}

// -- BlockHashTable --------------------------------------------------

struct TableDigests {
  std::uint64_t probabilities;
  std::uint64_t histogram;
  std::uint64_t samples;
};

TableDigests table_digests(const std::vector<double>& weights,
                           std::uint64_t cells, ChainWeighting weighting) {
  const BlockHashTable table(weights, cells, weighting);
  TableDigests out{};
  Digest probs;
  for (const double p : table.selection_probabilities()) probs.add_double(p);
  out.probabilities = probs.value();
  Digest hist;
  for (const std::size_t n : table.chain_length_histogram()) hist.add(n);
  out.histogram = hist.value();
  Digest samples;
  Rng rng(20260);
  for (int i = 0; i < 10000; ++i) samples.add(table.sample(rng));
  samples.add(rng());  // pins how many RNG calls the draws consumed
  out.samples = samples.value();
  return out;
}

std::vector<double> drift_weights() {
  // The CursorDriftKeepsTopEndProportional vector.
  std::vector<double> weights;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    weights.push_back(1.0 / 3.0 + rng.uniform() * 1e-3);
  }
  return weights;
}

std::vector<double> skewed_weights(std::size_t n, std::uint64_t seed) {
  std::vector<double> weights;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) weights.push_back(rng.uniform(0.1, 9.0));
  return weights;
}

struct TableCase {
  const char* name;
  std::vector<double> weights;
  std::uint64_t cells;
  ChainWeighting weighting;
  TableDigests expected;
};

TEST(PlacementGolden, HashTable) {
  constexpr auto kPaper = ChainWeighting::kPaper;
  constexpr auto kOverlap = ChainWeighting::kOverlap;
  const std::vector<TableCase> cases = {
      // Integral widths: every cell a singleton.
      {"uniform", {1, 1, 1, 1}, 100, kPaper,
       {0x572313b956b159e5ull, 0x2cdc2273d758f7c1ull, 0x895b0363ebb187c4ull}},
      {"uniform", {1, 1, 1, 1}, 100, kOverlap,
       {0x572313b956b159e5ull, 0x2cdc2273d758f7c1ull, 0x895b0363ebb187c4ull}},
      // Fractional boundaries: two-node chains; the top end overshoots m.
      {"fractional", {0.3, 1.7, 2.0, 0.1, 5.9}, 997, kPaper,
       {0x850008fc523b1518ull, 0xbdcb1f66635e2e51ull, 0xe0fabe7679df7e26ull}},
      {"fractional", {0.3, 1.7, 2.0, 0.1, 5.9}, 997, kOverlap,
       {0xf2aa86b9c8072434ull, 0xbdcb1f66635e2e51ull, 0x156ad86c3634aa85ull}},
      // A zero weight between positive ones.
      {"zero_weight", {0.5, 1.0, 0.0, 2.5, 1.0}, 200, kPaper,
       {0x22864f08777c58a7ull, 0x43e1113985021cadull, 0x2bc061c34d301d6eull}},
      {"zero_weight", {0.5, 1.0, 0.0, 2.5, 1.0}, 200, kOverlap,
       {0x22864f08777c58a7ull, 0x43e1113985021cadull, 0x2bc061c34d301d6eull}},
      // Shares of 1e-60 vanish against the cursor: forced anchor entries.
      {"zero_width", {1e30, 1e-30, 1e30, 1e-30, 1.0}, 128, kPaper,
       {0xc52ad54168f433caull, 0x59f22563df41ffbbull, 0x0a41aaa989e07807ull}},
      {"zero_width", {1e30, 1e-30, 1e30, 1e-30, 1.0}, 128, kOverlap,
       {0x3a619af50f76ae7aull, 0x59f22563df41ffbbull, 0x0a41aaa989e07807ull}},
      // The cursor overshoots m before the last node begins: its segment
      // is clamped to [m, m] and anchored in the top cell.
      {"top_clamped", {1, 1, 1, 1, 1, 1e-17}, 6, kPaper,
       {0x63097cb876d77d97ull, 0xd5e3d4f3cc592c61ull, 0x20091cbbc7736cd6ull}},
      {"top_clamped", {1, 1, 1, 1, 1, 1e-17}, 6, kOverlap,
       {0x157fc2ad9c7bda6eull, 0xd5e3d4f3cc592c61ull, 0x525539090877abdcull}},
      // Downward drift leaves a gap below m that the last segment closes.
      {"stretched_top", {1, 1, 1, 1, 1, 1, 1}, 3, kPaper,
       {0xfb5a75b1772e3790ull, 0x2b7cd781587a3fc6ull, 0xb9a8a0162bd5977dull}},
      {"stretched_top", {1, 1, 1, 1, 1, 1, 1}, 3, kOverlap,
       {0xfece6aa7f2856745ull, 0x2b7cd781587a3fc6ull, 0xd7590a025678292cull}},
      // Subnormal shares: resolution weights clamped to FLT_MIN.
      {"subnormal", {1e-310, 1.0, 2.0}, 64, kPaper,
       {0xc36dec0d685360f8ull, 0xed7549f8f0d0ac79ull, 0x63a0d028b97a2e24ull}},
      {"subnormal", {1e-310, 1.0, 2.0}, 64, kOverlap,
       {0xa4490216a4d2e5d0ull, 0xed7549f8f0d0ac79ull, 0x63a0d028b97a2e24ull}},
      {"subnormal_mid", {1.0, 1e-310, 2.0}, 64, kPaper,
       {0xf1872a04f6109a78ull, 0x2c32e0df8f67c5dbull, 0xa3fd3a8afd49dfb2ull}},
      {"subnormal_mid", {1.0, 1e-310, 2.0}, 64, kOverlap,
       {0xf1872a04f6109a78ull, 0x2c32e0df8f67c5dbull, 0xa3fd3a8afd49dfb2ull}},
      {"drift_401", drift_weights(), 401, kPaper,
       {0xc753f66bcedd0326ull, 0x86b829750b846003ull, 0x0db44dad7b6c6774ull}},
      {"drift_401", drift_weights(), 401, kOverlap,
       {0x204f7fd4d7bd30bdull, 0x86b829750b846003ull, 0x34547a03aaf20f3dull}},
      {"drift_4096", drift_weights(), 4096, kPaper,
       {0xb52aa04cbe2d1af4ull, 0x0a38dcd53609a76eull, 0xb0caa2c747d85557ull}},
      {"drift_4096", drift_weights(), 4096, kOverlap,
       {0x84f3991ee10589c1ull, 0x0a38dcd53609a76eull, 0x846ca3a21b60adabull}},
      // More nodes than cells: every cell a long chain.
      {"more_nodes", std::vector<double>(64, 1.0), 8, kPaper,
       {0x8c76603ef5dde725ull, 0x36a16c29aefe0fcdull, 0x37900f55250d6864ull}},
      {"more_nodes", std::vector<double>(64, 1.0), 8, kOverlap,
       {0x8c76603ef5dde725ull, 0x36a16c29aefe0fcdull, 0x37900f55250d6864ull}},
      {"more_nodes_skewed", skewed_weights(50, 3), 16, kPaper,
       {0x8adaed095570be42ull, 0x2c0cf7bd57c8ada1ull, 0xd4d55ec6cbfabd8full}},
      {"more_nodes_skewed", skewed_weights(50, 3), 16, kOverlap,
       {0x9fc935f90568bbd1ull, 0x2c0cf7bd57c8ada1ull, 0xacd86c0807d3ad0eull}},
      {"skewed", skewed_weights(300, 4), 30000, kPaper,
       {0x562fbbb3523d1d42ull, 0x208bd8f77ddb4d5cull, 0x6c0e48f822b24e8bull}},
      {"skewed", skewed_weights(300, 4), 30000, kOverlap,
       {0x4b899e2b37b67e2bull, 0x208bd8f77ddb4d5cull, 0x06a41b5709131404ull}},
  };
  for (const TableCase& c : cases) {
    const TableDigests got = table_digests(c.weights, c.cells, c.weighting);
    const std::string label =
        std::string(c.name) + "/" + placement::to_string(c.weighting);
    EXPECT_EQ(got.probabilities, c.expected.probabilities)
        << label << " probabilities " << hex(got.probabilities);
    EXPECT_EQ(got.histogram, c.expected.histogram)
        << label << " histogram " << hex(got.histogram);
    EXPECT_EQ(got.samples, c.expected.samples)
        << label << " samples " << hex(got.samples);
  }
}

// -- NameNode::create_file / rebalance_file ---------------------------

// Every block's replica list in order, every pending move, the
// placement mask, per-node usage (replicas held plus pending moves in),
// and the RNG's next output.
std::uint64_t namenode_digest(const hdfs::NameNode& nn, Rng& rng) {
  Digest d;
  d.add(nn.block_count());
  std::vector<std::uint64_t> usage(nn.node_count(), 0);
  for (hdfs::BlockId b = 0; b < nn.block_count(); ++b) {
    const hdfs::BlockInfo& info = nn.block(b);
    d.add(info.file);
    d.add(info.index);
    d.add(info.replicas.size());
    for (const cluster::NodeIndex node : info.replicas) {
      d.add(node);
      ++usage[node];
    }
  }
  d.add(nn.pending_moves().size());
  for (const hdfs::ReplicaMove& move : nn.pending_moves()) {
    d.add(move.block);
    d.add(move.from);
    d.add(move.to);
    ++usage[move.to];
  }
  for (const std::uint64_t word : nn.placement_mask().words()) d.add(word);
  for (const std::uint64_t used : usage) d.add(used);
  d.add(rng());
  return d.value();
}

hdfs::NameNode::Options capped(std::uint64_t cap_override = 0) {
  hdfs::NameNode::Options options;
  options.fidelity_cap = true;
  options.cap_override = cap_override;
  return options;
}

// Node 0 is ~10x faster than the rest; the others vary.
placement::PolicyPtr skewed_adapt(std::size_t n, std::uint64_t blocks) {
  std::vector<double> et;
  for (std::size_t i = 0; i < n; ++i) {
    et.push_back(i == 0 ? 1.0 : 10.0 + static_cast<double>(i % 5));
  }
  return placement::make_adapt_policy(et, blocks);
}

// 16 nodes in 4 racks of 4, racks {0, 1} in site 0 and {2, 3} in site 1.
std::shared_ptr<const cluster::FaultDomains> two_sites() {
  std::vector<std::uint32_t> rack_of;
  for (std::uint32_t i = 0; i < 16; ++i) rack_of.push_back(i / 4);
  return std::make_shared<const cluster::FaultDomains>(
      std::move(rack_of), std::vector<std::uint32_t>{0, 0, 1, 1});
}

const hdfs::NameNode::NodeFilter kBanSome = [](cluster::NodeIndex node) {
  return node != 0 && node != 3 && node != 7;
};

struct NameNodeCase {
  const char* name;
  std::function<std::uint64_t()> run;
  std::uint64_t expected;
};

std::uint64_t load(hdfs::NameNode nn, int replication, std::uint32_t blocks,
                   const placement::PolicyPtr& policy, std::uint64_t seed,
                   const hdfs::NameNode::NodeFilter& filter = nullptr) {
  Rng rng(seed);
  nn.create_file("a", blocks, replication, policy, rng, filter);
  // A second load in the same namespace: the cap counts restart per
  // call, but usage carries over.
  nn.create_file("b", blocks / 2, replication, policy, rng, filter);
  return namenode_digest(nn, rng);
}

TEST(PlacementGolden, CreateFile) {
  const std::vector<NameNodeCase> cases = {
      {"random_r1",
       [] {
         return load(hdfs::NameNode(16), 1, 200,
                     placement::make_random_policy(16), 1);
       },
       0xbd3d5ac80d6bca30ull},
      {"adapt_r2",
       [] {
         return load(hdfs::NameNode(16), 2, 300, skewed_adapt(16, 300), 2);
       },
       0xa0b04fa7204928d5ull},
      {"adapt_r2_cap",
       [] {
         return load(hdfs::NameNode(16, capped()), 2, 300,
                     skewed_adapt(16, 300), 3);
       },
       0x472542cd10f07ba8ull},
      {"adapt_r3_cap_override",
       [] {
         return load(hdfs::NameNode(16, capped(40)), 3, 300,
                     skewed_adapt(16, 300), 4);
       },
       0x2e539aace29ea7bbull},
      {"adapt_r2_cap_filter",
       [] {
         return load(hdfs::NameNode(16, capped()), 2, 300,
                     skewed_adapt(16, 300), 5, kBanSome);
       },
       0xb84b8fe80542960dull},
      {"adapt_r2_filter",
       [] {
         return load(hdfs::NameNode(16), 2, 300, skewed_adapt(16, 300), 6,
                     kBanSome);
       },
       0xa26e865a9e3b4b9cull},
      // A tiny cap on a skewed policy: after a few blocks every
      // candidate is capped and each draw overflows; earlier, the only
      // under-cap candidates are often the block's own holders.
      {"overflow_r2",
       [] {
         return load(hdfs::NameNode(4, capped(3)), 2, 40,
                     placement::make_adapt_policy({1, 1000, 1000, 1000}, 40),
                     9);
       },
       0xccb7ccd7c3b5c9f3ull},
      {"overflow_r3",
       [] {
         return load(hdfs::NameNode(5, capped(4)), 3, 30,
                     placement::make_adapt_policy({1, 1, 500, 500, 500}, 30),
                     10);
       },
       0x2711dd7e04e38004ull},
      {"jump_r2_cap",
       [] {
         std::vector<cluster::NodeIndex> order;
         for (cluster::NodeIndex i = 0; i < 16; ++i) order.push_back(15 - i);
         return load(hdfs::NameNode(16, capped(30)), 2, 300,
                     placement::make_jump_hash_policy(order), 11);
       },
       0xd5ea64b8bdf2eda9ull},
      {"anti_affine_r2",
       [] {
         hdfs::NameNode nn(16);
         nn.set_fault_domains(two_sites(), true);
         return load(std::move(nn), 2, 200, skewed_adapt(16, 200), 13);
       },
       0xb7076b502fe4b45bull},
      {"anti_affine_r3_cap",
       [] {
         hdfs::NameNode nn(16, capped());
         nn.set_fault_domains(two_sites(), true);
         return load(std::move(nn), 3, 200, skewed_adapt(16, 200), 14);
       },
       0xc360bcdc79ce718aull},
      {"anti_affine_r3_cap_filter",
       [] {
         hdfs::NameNode nn(16, capped(25));
         nn.set_fault_domains(two_sites(), true);
         return load(std::move(nn), 3, 200, skewed_adapt(16, 200), 15,
                     kBanSome);
       },
       0x64ddace8b3c22f78ull},
  };
  for (const NameNodeCase& c : cases) {
    const std::uint64_t got = c.run();
    EXPECT_EQ(got, c.expected) << c.name << " " << hex(got);
  }
}

// Load with a uniform policy, then rebalance toward a skewed one; the
// moves stay pending, so a second rebalance sees their targets.
std::uint64_t rebalance(hdfs::NameNode nn, int replication,
                        std::uint32_t blocks,
                        const placement::PolicyPtr& target,
                        std::uint64_t seed, int passes,
                        const hdfs::NameNode::NodeFilter& filter = nullptr) {
  Rng rng(seed);
  const hdfs::FileId file = nn.create_file(
      "a", blocks, replication,
      placement::make_random_policy(nn.node_count()), rng);
  Digest d;
  for (int pass = 0; pass < passes; ++pass) {
    for (const hdfs::ReplicaMove& move :
         nn.rebalance_file(file, target, rng, filter)) {
      d.add(move.block);
      d.add(move.from);
      d.add(move.to);
    }
  }
  d.add(namenode_digest(nn, rng));
  return d.value();
}

TEST(PlacementGolden, RebalanceFile) {
  const std::vector<NameNodeCase> cases = {
      {"adapt_r1",
       [] {
         return rebalance(hdfs::NameNode(16), 1, 200, skewed_adapt(16, 200),
                          21, 1);
       },
       0x6895fb3d9386cac1ull},
      {"adapt_r2_cap",
       [] {
         return rebalance(hdfs::NameNode(16, capped()), 2, 200,
                          skewed_adapt(16, 200), 22, 1);
       },
       0x81e8e810f28bb0f8ull},
      // Nothing under the cap: replicas stay where they are.
      {"adapt_r2_tight_cap",
       [] {
         return rebalance(hdfs::NameNode(16, capped(8)), 2, 200,
                          skewed_adapt(16, 200), 23, 1);
       },
       0x8769280a82657181ull},
      {"adapt_r3_cap_two_passes",
       [] {
         return rebalance(hdfs::NameNode(16, capped()), 3, 150,
                          skewed_adapt(16, 150), 24, 2);
       },
       0x3d9b108781c0c5d3ull},
      {"adapt_r2_filter",
       [] {
         return rebalance(hdfs::NameNode(16, capped()), 2, 200,
                          skewed_adapt(16, 200), 25, 1, kBanSome);
       },
       0x50b95fdaa942dcd0ull},
      {"jump_r2_cap",
       [] {
         std::vector<cluster::NodeIndex> order;
         for (cluster::NodeIndex i = 0; i < 16; ++i) order.push_back(i);
         return rebalance(hdfs::NameNode(16, capped(20)), 2, 200,
                          placement::make_jump_hash_policy(order), 27, 2);
       },
       0xaa3745471846d8f9ull},
      {"anti_affine_r2_cap",
       [] {
         hdfs::NameNode nn(16, capped());
         nn.set_fault_domains(two_sites(), true);
         return rebalance(std::move(nn), 2, 200, skewed_adapt(16, 200), 28,
                          2);
       },
       0xa27a2f0351e292bdull},
      {"anti_affine_r3",
       [] {
         hdfs::NameNode nn(16);
         nn.set_fault_domains(two_sites(), true);
         return rebalance(std::move(nn), 3, 120, skewed_adapt(16, 120), 29,
                          1);
       },
       0xc864ec04df650fd1ull},
  };
  for (const NameNodeCase& c : cases) {
    const std::uint64_t got = c.run();
    EXPECT_EQ(got, c.expected) << c.name << " " << hex(got);
  }
}

}  // namespace
