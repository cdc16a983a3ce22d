#pragma once

/// \file dheap.hpp
/// A 4-ary implicit min-heap: the bottom tier of util::RadixHeap, the
/// queue behind every wavefront search (maze routing, the stage-4
/// (tile x L) search, its goal-rooted heuristic field).  The radix heap
/// files entries by key bits and hands this heap only the entries at or
/// below its last popped key — the ties and the rare one-ulp-under
/// pushes — so it must order them exactly as a full heap would.  Versus
/// std::push_heap/pop_heap on a binary heap, four children per node
/// halve the tree depth and keep each sift-down's children in one cache
/// line.
///
/// Determinism: entry types order by `operator>`, which every caller
/// defines as a *strict total order* (cost first, then an id tie-break),
/// so the minimum element is unique and any correct heap pops the same
/// sequence.  The radix heap keeps that property because every entry in
/// this tier is <= its last popped key and every bucketed entry is
/// greater, so the minimum of this tier is the global minimum (see
/// radix_heap.hpp).  Swapping the heap implementation provably cannot
/// change a route.
///
/// push/pop also take a comparator: the radix heap keeps pool slot
/// indices here and compares them through its pool, so the comparator
/// is passed per call rather than stored (a stored pool pointer would
/// dangle when the owner moves).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace rabid::util {

template <typename T, int D = 4>
class DaryHeap {
  static_assert(D >= 2, "heap arity must be at least 2");

 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  std::size_t capacity() const { return v_.capacity(); }
  void clear() { v_.clear(); }
  void reserve(std::size_t n) { v_.reserve(n); }

  /// Pushes that had to reallocate the backing vector since the last
  /// take_regrows().  The heap stays obs-free (util does not depend on
  /// obs); owners flush this into Counter::kHeapRegrows once per pass,
  /// so silent reallocation churn at 512x512 scale becomes visible.
  std::uint64_t take_regrows() {
    const std::uint64_t n = regrows_;
    regrows_ = 0;
    return n;
  }

  void push(T e) { push(e, std::greater<T>{}); }
  /// Removes and returns the minimum element (heap must be non-empty).
  T pop() { return pop(std::greater<T>{}); }

  /// push/pop under `gt(a, b)` == "a orders after b" (a strict total
  /// order; the same comparator on every call).
  template <typename Greater>
  void push(T e, const Greater& gt) {
    std::size_t i = v_.size();
    if (v_.size() == v_.capacity()) ++regrows_;
    v_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / D;
      if (!gt(v_[parent], v_[i])) break;
      std::swap(v_[parent], v_[i]);
      i = parent;
    }
  }

  template <typename Greater>
  T pop(const Greater& gt) {
    T top = v_.front();
    T last = v_.back();
    v_.pop_back();
    if (!v_.empty()) {
      std::size_t i = 0;
      const std::size_t n = v_.size();
      while (true) {
        const std::size_t first = i * D + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + D < n ? first + D : n;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (gt(v_[best], v_[c])) best = c;
        }
        if (!gt(last, v_[best])) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = last;
    }
    return top;
  }

 private:
  std::vector<T> v_;
  std::uint64_t regrows_ = 0;
};

}  // namespace rabid::util
