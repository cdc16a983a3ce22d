#include "util/radix_heap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/dheap.hpp"

namespace rabid::util {
namespace {

/// A wavefront-shaped entry: key first, then an id tie-break (the
/// strict total order every search's entry type defines).
struct Item {
  double key;
  std::uint32_t id;
  bool operator>(const Item& o) const {
    if (key != o.key) return key > o.key;
    return id > o.id;
  }
  bool operator==(const Item& o) const = default;
};

/// The same pushes and pops on a RadixHeap and a DaryHeap must pop the
/// same sequence.  Keys are drawn the way float wavefronts make them:
/// equal to the last pop (ties that must pop by id), one ulp below it
/// (a rounded d + h under the last key), small integers (many exact
/// duplicates, duplicate ids included), 0.0, +inf, and wide randoms.
void differential(std::uint64_t seed, int ops, bool with_clears) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(seed);
  RadixHeap<Item> radix;
  DaryHeap<Item> dary;
  double last = 0.0;
  const auto draw_key = [&]() -> double {
    switch (rng() % 8) {
      case 0:
        return last;
      case 1:
        return last > 0.0 ? std::nextafter(last, 0.0) : 0.0;
      case 2:
        return std::nextafter(last, kInf);
      case 3:
        return static_cast<double>(rng() % 8);
      case 4:
        return rng() % 64 == 0 ? kInf : 0.0;
      case 5:
        return last + static_cast<double>(rng() % 1000) / 3.0;
      default:
        return std::ldexp(static_cast<double>(rng() % 1000000),
                          static_cast<int>(rng() % 40) - 20);
    }
  };
  for (int op = 0; op < ops; ++op) {
    if (with_clears && rng() % 500 == 0) {
      radix.clear();
      dary.clear();
      ASSERT_TRUE(radix.empty());
      last = 0.0;
      continue;
    }
    if (dary.empty() || rng() % 5 < 3) {
      const Item e{draw_key(), static_cast<std::uint32_t>(rng() % 64)};
      radix.push(e);
      dary.push(e);
    } else {
      const Item want = dary.pop();
      const Item got = radix.pop();
      ASSERT_EQ(got, want) << "seed=" << seed << " op=" << op << " key "
                           << got.key << " vs " << want.key;
      last = got.key;
    }
    ASSERT_EQ(radix.size(), dary.size());
  }
  while (!dary.empty()) {
    ASSERT_EQ(radix.pop(), dary.pop()) << "seed=" << seed << " drain";
  }
  EXPECT_TRUE(radix.empty());
}

TEST(RadixHeap, PopsTheDaryHeapSequence) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    differential(seed, 20000, /*with_clears=*/false);
  }
}

TEST(RadixHeap, ClearResetsForReuse) {
  for (std::uint64_t seed = 101; seed <= 108; ++seed) {
    differential(seed, 20000, /*with_clears=*/true);
  }
}

/// After a pop, a key below the popped one (a cleared heap refilled
/// from 0, or an ulp-under push) still pops next: it lands in the
/// bottom heap, not in a bucket.
TEST(RadixHeap, KeysAtOrBelowTheLastPopComeFirst) {
  RadixHeap<Item> h;
  h.push({5.0, 3});
  h.push({9.0, 1});
  EXPECT_EQ(h.pop(), (Item{5.0, 3}));
  h.push({std::nextafter(5.0, 0.0), 7});
  h.push({5.0, 2});
  h.push({5.0, 1});
  EXPECT_EQ(h.pop(), (Item{std::nextafter(5.0, 0.0), 7}));
  EXPECT_EQ(h.pop(), (Item{5.0, 1}));
  EXPECT_EQ(h.pop(), (Item{5.0, 2}));
  EXPECT_EQ(h.pop(), (Item{9.0, 1}));
  EXPECT_TRUE(h.empty());
  h.push({9.0, 0});
  h.clear();
  h.push({1.0, 0});
  h.push({0.0, 4});
  EXPECT_EQ(h.pop(), (Item{0.0, 4}));
  EXPECT_EQ(h.pop(), (Item{1.0, 0}));
}

/// reserve(n) covers any n queued entries: n pushes (all into buckets,
/// or all tied into the bottom heap), interleaved pops, and a refill
/// after clear() never reallocate.
TEST(RadixHeap, ReserveEliminatesRegrows) {
  constexpr std::size_t kN = 4096;
  RadixHeap<Item> h;
  h.reserve(kN);
  EXPECT_GE(h.capacity(), kN);
  std::mt19937_64 rng(5);
  for (std::size_t i = 0; i < kN; ++i) {
    const auto key = static_cast<double>(rng() % 100000);
    h.push({key, static_cast<std::uint32_t>(i)});
  }
  EXPECT_EQ(h.take_regrows(), 0u);
  // Pop half, refill to n: freed pool slots are reused.
  for (std::size_t i = 0; i < kN / 2; ++i) h.pop();
  for (std::size_t i = 0; i < kN / 2; ++i) {
    h.push({1.0e6 + static_cast<double>(i), 0});
  }
  EXPECT_EQ(h.size(), kN);
  EXPECT_EQ(h.take_regrows(), 0u);
  // n equal keys all go to the bottom heap.
  h.clear();
  for (std::size_t i = 0; i < kN; ++i) {
    h.push({0.0, static_cast<std::uint32_t>(kN - i)});
  }
  EXPECT_EQ(h.take_regrows(), 0u);
  EXPECT_EQ(h.pop(), (Item{0.0, 1}));
  // One entry past the reserve regrows the pool.
  h.push({0.0, 0});
  h.push({0.0, 0});
  EXPECT_GT(h.take_regrows(), 0u);
  EXPECT_EQ(h.take_regrows(), 0u);
}

void push_key(double key) {
  RadixHeap<Item> h;
  h.push({key, 0});
}

/// Negative, -0.0 and NaN bit patterns would sort above +inf.
TEST(RadixHeap, RejectsKeysThatWouldMisorder) {
  EXPECT_DEATH(push_key(-1.0), "radix heap key");
  EXPECT_DEATH(push_key(-0.0), "radix heap key");
  EXPECT_DEATH(push_key(std::numeric_limits<double>::quiet_NaN()),
               "radix heap key");
}

}  // namespace
}  // namespace rabid::util
