#pragma once

/// \file radix_heap.hpp
/// The exact-order radix heap behind every wavefront search: maze
/// routing (stages 1 and 2, MCF, ECO), the stage-4 (tile x L) search and
/// its goal-rooted heuristic field.  After Ahuja, Mehlhorn, Orlin and
/// Tarjan, "Faster algorithms for the shortest path problem" (J. ACM
/// 1990), specialized to IEEE-754 keys and made exact:
///
/// - An entry whose key bit pattern is above the last popped key (`last`)
///   goes into one of 64 buckets, chosen by the highest bit where the two
///   patterns differ.  Push is O(1).
/// - An entry at or below `last` goes into a bottom DaryHeap ordered by
///   `T::operator>`: the ties, which must still pop by id, and the keys
///   that float rounding puts an ulp under `last`.
/// - pop() takes the bottom heap's minimum.  When the bottom heap is
///   empty it empties the lowest non-empty bucket: `last` becomes that
///   bucket's minimum key, the entries with exactly that key go to the
///   bottom heap and the rest to lower buckets (each entry descends at
///   most 64 times in its life).
///
/// Exact order: for non-negative doubles the bit pattern orders like the
/// value, so every bottom entry has key <= last and every bucketed entry
/// key > last, and the bottom heap's minimum is the global minimum under
/// T's strict total order.  A bucket holds keys that agree with `last`
/// above its bit and have that bit set where `last` has it clear, so a
/// lower bucket's keys are all below a higher bucket's, and the lowest
/// non-empty bucket holds the global minimum key when the bottom is
/// empty.  Hence the pop sequence equals DaryHeap's for any interleaving
/// of pushes and pops, and swapping one for the other cannot change a
/// route.
///
/// Storage: queued entries live in one pool of nodes pre-sized by
/// reserve(), recycled through a free list; buckets are intrusive lists
/// of pool slots and the bottom heap holds slots too.  A queue never
/// holds more pool nodes than a plain heap would hold entries, so a
/// reserve that sufficed for a plain heap still holds, and
/// take_regrows() keeps its meaning (pool or bottom-heap reallocations).
///
/// `T` must expose a `double key` and a strict total `operator>` that
/// orders by key first.  Keys must be +0.0 or above and not NaN
/// (asserted): a negative, -0.0 or NaN bit pattern would misorder.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "util/dheap.hpp"

namespace rabid::util {

template <typename T>
class RadixHeap {
 public:
  RadixHeap() { head_.fill(kNone); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return pool_.capacity(); }
  void reserve(std::size_t n) {
    pool_.reserve(n);
    bottom_.reserve(n);
  }

  void clear() {
    for (std::uint64_t m = occupied_; m != 0; m &= m - 1) {
      head_[static_cast<std::size_t>(std::countr_zero(m))] = kNone;
    }
    occupied_ = 0;
    last_ = 0;
    size_ = 0;
    free_ = kNone;
    pool_.clear();
    bottom_.clear();
  }

  /// Pushes that had to reallocate the pool or the bottom heap since the
  /// last take_regrows() (owners flush it into Counter::kHeapRegrows).
  std::uint64_t take_regrows() {
    const std::uint64_t n = regrows_ + bottom_.take_regrows();
    regrows_ = 0;
    return n;
  }

  /// Bytes held by the pool (entries and their bucket links) and the
  /// bottom heap's slot array.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(pool_.capacity()) * sizeof(Node) +
           static_cast<std::uint64_t>(bottom_.capacity()) *
               sizeof(std::uint32_t);
  }

  void push(const T& e) {
    const std::uint64_t b = bits_of(e);
    RABID_ASSERT_MSG(b <= kInfBits,
                     "radix heap key must be +0.0 or above and not NaN");
    ++size_;
    const std::uint32_t s = alloc(e);
    if (b <= last_) {
      bottom_.push(s, SlotGreater{pool_.data()});
      return;
    }
    link(s, bucket_of(b));
  }

  /// Removes and returns the minimum element (heap must be non-empty).
  T pop() {
    if (bottom_.empty()) refill();
    const std::uint32_t s = bottom_.pop(SlotGreater{pool_.data()});
    Node& n = pool_[s];
    const T e = n.e;
    n.next = free_;
    free_ = s;
    --size_;
    return e;
  }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kInfBits =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());

  struct Node {
    T e;
    std::uint32_t next;  ///< next slot in the bucket or free list
  };
  struct SlotGreater {
    const Node* pool;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return pool[a].e > pool[b].e;
    }
  };

  static std::uint64_t bits_of(const T& e) {
    return std::bit_cast<std::uint64_t>(e.key);
  }
  /// Bucket of a key above last_: its highest bit differing from last_.
  int bucket_of(std::uint64_t b) const {
    return 63 - std::countl_zero(b ^ last_);
  }
  void link(std::uint32_t s, int k) {
    const auto ki = static_cast<std::size_t>(k);
    pool_[s].next = head_[ki];
    head_[ki] = s;
    occupied_ |= std::uint64_t{1} << k;
  }

  std::uint32_t alloc(const T& e) {
    if (free_ != kNone) {
      const std::uint32_t s = free_;
      free_ = pool_[s].next;
      pool_[s].e = e;
      return s;
    }
    RABID_ASSERT_MSG(pool_.size() < kNone, "radix heap pool overflow");
    if (pool_.size() == pool_.capacity()) ++regrows_;
    pool_.push_back(Node{e, kNone});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  /// Empties the lowest non-empty bucket into the bottom heap (its
  /// minimum key) and the lower buckets (the rest).
  void refill() {
    RABID_ASSERT_MSG(occupied_ != 0, "pop from an empty radix heap");
    const int k = std::countr_zero(occupied_);
    const auto ki = static_cast<std::size_t>(k);
    std::uint32_t s = head_[ki];
    head_[ki] = kNone;
    occupied_ &= ~(std::uint64_t{1} << k);
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t x = s; x != kNone; x = pool_[x].next) {
      const std::uint64_t b = bits_of(pool_[x].e);
      if (b < lo) lo = b;
    }
    last_ = lo;
    const SlotGreater gt{pool_.data()};
    while (s != kNone) {
      const std::uint32_t next = pool_[s].next;
      const std::uint64_t b = bits_of(pool_[s].e);
      if (b == lo) {
        bottom_.push(s, gt);
      } else {
        link(s, bucket_of(b));
      }
      s = next;
    }
  }

  std::vector<Node> pool_;
  std::uint32_t free_ = kNone;            ///< head of the free-slot list
  std::array<std::uint32_t, 64> head_{};  ///< bucket lists (kNone = empty)
  std::uint64_t occupied_ = 0;            ///< bit k set iff bucket k non-empty
  std::uint64_t last_ = 0;                ///< bits of the last popped key
  std::size_t size_ = 0;
  DaryHeap<std::uint32_t> bottom_;  ///< slots with key <= last_
  std::uint64_t regrows_ = 0;
};

}  // namespace rabid::util
