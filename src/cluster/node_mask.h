// Fixed-size bitset over node indices, the eligibility currency of the
// placement hot path.
//
// Placement draws, the fidelity cap, and re-replication all reason about
// "which nodes qualify right now". A std::vector<bool> answers that one
// bit at a time and has to be rebuilt O(n) per draw; NodeMask packs the
// set into 64-bit words so the NameNode can maintain it incrementally
// (flip one bit when a node dies or revives) and combine masks
// word-parallel (eligible = placeable & filter, minus the cap mask).
// Tail bits past size() are kept zero as a class invariant, so count(),
// any() and the word-wise combines never need per-bit masking.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace adapt::cluster {

class NodeMask {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  NodeMask() = default;
  explicit NodeMask(std::size_t size, bool value = false)
      : size_(size), words_((size + kWordBits - 1) / kWordBits, 0) {
    if (value) set_all();
  }

  static NodeMask from_vector(const std::vector<bool>& bits) {
    NodeMask mask(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) mask.set(i);
    }
    return mask;
  }

  std::vector<bool> to_vector() const {
    std::vector<bool> bits(size_, false);
    for_each_set([&bits](std::uint32_t i) { bits[i] = true; });
    return bits;
  }

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  bool operator[](std::size_t i) const { return test(i); }

  void set(std::size_t i) { words_[i / kWordBits] |= Word{1} << (i % kWordBits); }
  void reset(std::size_t i) {
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }
  void assign(std::size_t i, bool value) {
    if (value) {
      set(i);
    } else {
      reset(i);
    }
  }

  void set_all() {
    if (size_ == 0) return;
    for (Word& w : words_) w = ~Word{0};
    trim_tail();
  }
  void reset_all() {
    for (Word& w : words_) w = 0;
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (const Word w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  bool any() const {
    for (const Word w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool none() const { return !any(); }

  NodeMask& operator&=(const NodeMask& other) {
    check_size(other);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
    return *this;
  }
  NodeMask& operator|=(const NodeMask& other) {
    check_size(other);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
    return *this;
  }
  // Word-parallel "do the two sets share a node" test — the fault-domain
  // eligibility step asks this per domain, so it must not materialize
  // the intersection.
  bool intersects(const NodeMask& other) const {
    check_size(other);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & other.words_[w]) != 0) return true;
    }
    return false;
  }

  // this &= ~other; the word-parallel "remove these nodes" combine.
  NodeMask& and_not(const NodeMask& other) {
    check_size(other);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= ~other.words_[w];
    }
    return *this;
  }

  bool operator==(const NodeMask&) const = default;

  // Visit set bits in ascending index order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        fn(static_cast<std::uint32_t>(w * kWordBits + bit));
        word &= word - 1;
      }
    }
  }

  // Index of the n-th (0-based) set bit, or size() when fewer are set.
  std::size_t nth_set(std::size_t n) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      const auto in_word = static_cast<std::size_t>(std::popcount(word));
      if (n >= in_word) {
        n -= in_word;
        continue;
      }
      while (n-- > 0) word &= word - 1;  // drop the n lowest set bits
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
    }
    return size_;
  }

  // Highest set index, or size() when empty.
  std::size_t last_set() const {
    for (std::size_t w = words_.size(); w-- > 0;) {
      if (words_[w] == 0) continue;
      return w * kWordBits + (kWordBits - 1) -
             static_cast<std::size_t>(std::countl_zero(words_[w]));
    }
    return size_;
  }

  const std::vector<Word>& words() const { return words_; }

 private:
  void check_size(const NodeMask& other) const {
    if (other.size_ != size_) {
      throw std::invalid_argument("NodeMask: size mismatch");
    }
  }
  void trim_tail() {
    const std::size_t tail = size_ % kWordBits;
    if (tail != 0) words_.back() &= (Word{1} << tail) - 1;
  }

  std::size_t size_ = 0;
  std::vector<Word> words_;  // invariant: bits >= size_ are zero
};

}  // namespace adapt::cluster
