#include "placement/hash_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace adapt::placement {

std::string to_string(ChainWeighting weighting) {
  switch (weighting) {
    case ChainWeighting::kPaper:
      return "paper";
    case ChainWeighting::kOverlap:
      return "overlap";
  }
  return "?";
}

BlockHashTable::BlockHashTable(const std::vector<double>& weights,
                               std::uint64_t cells, ChainWeighting weighting)
    : weighting_(weighting) {
  if (cells == 0) throw std::invalid_argument("hash table: zero cells");
  if (weights.empty()) throw std::invalid_argument("hash table: no nodes");
  if (weights.size() >= kChain) {
    throw std::invalid_argument("hash table: too many nodes");
  }

  double total = 0.0;
  for (double w : weights) {
    if (w < 0 || !std::isfinite(w)) {
      throw std::invalid_argument("hash table: weights must be finite, >= 0");
    }
    total += w;
  }
  if (total <= 0) {
    throw std::invalid_argument("hash table: all weights are zero");
  }

  shares_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    shares_[i] = weights[i] / total;
  }

  // Node i owns the interval [begin_i, end_i) in units of cells, laid
  // out in ascending order; chains form where a cell overlaps more than
  // one interval. Cells therefore fill in nondecreasing order: the open
  // cell collects its chain, and closes (normalized, written out) when a
  // later cell receives its first entry.
  const double m = static_cast<double>(cells);
  std::size_t last_node = 0;
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    if (shares_[i] * m > 0.0) last_node = i;
  }
  cells_.reserve(cells);
  chain_offsets_.push_back(0);
  std::vector<Entry> chain;
  std::uint64_t open = 0;
  const auto close_open_cell = [&] {
    if (chain.empty()) {
      throw std::logic_error("hash table: empty chain (rounding bug)");
    }
    if (chain.size() == 1) {
      cells_.push_back(chain.front().node);
    } else {
      cells_.push_back(kChain |
                       static_cast<std::uint32_t>(chain_offsets_.size() - 1));
      // Normalize resolution weights within the chain.
      double sum = 0.0;
      for (const Entry& e : chain) sum += e.weight;
      for (Entry e : chain) {
        e.weight = static_cast<float>(e.weight / sum);
        entries_.push_back(e);
      }
      chain_offsets_.push_back(static_cast<std::uint32_t>(entries_.size()));
    }
    chain.clear();
    ++open;
  };
  const auto add = [&](std::uint64_t cell, Entry entry) {
    if (cell < open) {
      throw std::logic_error("hash table: segment starts before the open cell");
    }
    while (open < cell) close_open_cell();
    chain.push_back(entry);
  };

  // A resolution weight must survive the float narrowing: a subnormal
  // double share would otherwise round to 0.0f and vanish in the chain
  // normalization.
  const auto entry_weight = [](double w) {
    return std::max(static_cast<float>(w),
                    std::numeric_limits<float>::min());
  };
  double cursor = 0.0;
  for (std::size_t i = 0; i <= last_node; ++i) {
    const double width = shares_[i] * m;
    if (width <= 0.0) continue;
    const auto node = static_cast<std::uint32_t>(i);
    // Clamp every boundary to [0, m]: the cumulative cursor accumulates
    // rounding drift, and upward drift can push a later segment's begin
    // past m, which would silently give that node zero selection
    // probability (its cell range would be empty).
    const double begin = std::min(cursor, m);
    cursor += width;
    double end = std::min(cursor, m);
    // Guard the accumulated rounding drift at the top end: only stretch
    // the last segment when downward drift left a gap below m. When the
    // cursor overshot, the segment is already clamped to m and the
    // assignment must not widen an interval that ended early.
    if (i == last_node && cursor < m) end = m;

    const auto anchor =
        std::min(static_cast<std::uint64_t>(begin), cells - 1);
    const auto last =
        static_cast<std::uint64_t>(std::min(m - 1.0, std::ceil(end) - 1.0));
    bool inserted = false;
    for (std::uint64_t j = anchor; j <= last && j < cells; ++j) {
      const double cell_lo = static_cast<double>(j);
      const double cell_hi = cell_lo + 1.0;
      const double overlap = std::min(end, cell_hi) - std::max(begin, cell_lo);
      if (overlap <= 0.0) continue;
      const double w =
          weighting_ == ChainWeighting::kPaper ? shares_[i] : overlap;
      add(j, {node, entry_weight(w)});
      inserted = true;
    }
    if (!inserted) {
      // Rounding squeezed the segment to zero width (tiny share, or a
      // clamped boundary at m). Every positive-weight node must keep a
      // positive selection probability, so force one chain entry at the
      // segment's anchor cell.
      add(anchor, {node, entry_weight(shares_[i])});
    }
  }
  while (open < cells) close_open_cell();
}

std::uint32_t BlockHashTable::sample(common::Rng& rng) const {
  const std::uint32_t cell = cells_[rng.uniform_index(cells_.size())];
  if ((cell & kChain) == 0) return cell;
  const std::uint32_t begin = chain_offsets_[cell & ~kChain];
  const std::uint32_t end = chain_offsets_[(cell & ~kChain) + 1];
  const double r1 = rng.uniform();
  double low = 0.0;
  for (std::uint32_t k = begin; k < end; ++k) {
    const double high = low + entries_[k].weight;
    if (r1 < high || k + 1 == end) return entries_[k].node;
    low = high;
  }
  return entries_[end - 1].node;
}

std::vector<double> BlockHashTable::selection_probabilities() const {
  std::vector<double> probs(shares_.size(), 0.0);
  const double cell_prob = 1.0 / static_cast<double>(cells_.size());
  for (const std::uint32_t cell : cells_) {
    if ((cell & kChain) == 0) {
      probs[cell] += cell_prob;
      continue;
    }
    const std::uint32_t c = cell & ~kChain;
    for (std::uint32_t k = chain_offsets_[c]; k < chain_offsets_[c + 1]; ++k) {
      probs[entries_[k].node] += cell_prob * entries_[k].weight;
    }
  }
  return probs;
}

std::vector<std::size_t> BlockHashTable::chain_length_histogram() const {
  std::vector<std::size_t> hist;
  for (const std::uint32_t cell : cells_) {
    const std::size_t len =
        (cell & kChain) == 0 ? 1
                             : chain_offsets_[(cell & ~kChain) + 1] -
                                   chain_offsets_[cell & ~kChain];
    if (hist.size() <= len) hist.resize(len + 1, 0);
    ++hist[len];
  }
  return hist;
}

}  // namespace adapt::placement
