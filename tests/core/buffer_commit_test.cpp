// The shared buffer-commit loop (core/buffer_commit.hpp): the
// forbidden-tile retry when one net's DP oversubscribes a tile, and the
// strict variant's park-without-touching-the-books contract.

#include "core/buffer_commit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/counters.hpp"

namespace rabid::core {
namespace {

/// A two-branch star on an 8x8 grid, built by hand:
///
///   R(1,3) -> S(2,3) -> up   (2,4) (2,5) (2,6)*
///                    -> down (2,2) (2,1) (2,0)*
///
/// With L = 3 the driver can reach S plus one tile of each branch, so
/// both 3-unit branches need a gate: either two buffers at S or one at
/// each branch head B1 = (2,4), B2 = (2,2).  Only S, B1 and B2 carry
/// sites: S has one free site at q = 2, each branch head one free site
/// at q = 5.  The per-net DP therefore prefers two buffers at S (cost 4)
/// over B1 + B2 (cost 10), and S cannot hold both.
class BufferCommitTest : public ::testing::Test {
 protected:
  static constexpr std::int32_t kL = 3;

  BufferCommitTest() : graph_(geom::Rect{{0, 0}, {800, 800}}, 8, 8) {
    tree_ = route::RouteTree(at(1, 3));
    const route::NodeId s = tree_.add_child(tree_.root(), at(2, 3));
    route::NodeId up = s;
    for (const std::int32_t y : {4, 5, 6}) up = tree_.add_child(up, at(2, y));
    tree_.add_sink(up);
    route::NodeId down = s;
    for (const std::int32_t y : {2, 1, 0}) {
      down = tree_.add_child(down, at(2, y));
    }
    tree_.add_sink(down);
    for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
      graph_.set_site_supply(t, 0);
    }
    occupy(at(2, 3), /*supply=*/2, /*used=*/1);
  }

  void SetUp() override {
    obs::Registry::instance().set_level(obs::Level::kCounters);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::Registry::instance().set_level(obs::Level::kOff);
    obs::Registry::instance().reset();
  }

  tile::TileId at(std::int32_t x, std::int32_t y) const {
    return graph_.id_of({x, y});
  }

  /// Sets a tile's supply and pre-fills `used` of its sites, standing in
  /// for buffers other nets already committed.
  void occupy(tile::TileId t, std::int32_t supply, std::int32_t used) {
    graph_.set_site_supply(t, supply);
    for (std::int32_t k = 0; k < used; ++k) graph_.add_buffer(t);
  }

  std::vector<std::int32_t> site_usage() const {
    std::vector<std::int32_t> usage;
    for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
      usage.push_back(graph_.site_usage(t));
    }
    return usage;
  }

  /// The check_books() property for one net: every tile's site usage is
  /// its pre-existing usage plus exactly the net's placements there, and
  /// never above supply.
  void expect_books_match(const std::vector<std::int32_t>& before,
                          const NetState& state) const {
    std::vector<std::int32_t> expected = before;
    for (const route::BufferPlacement& b : state.buffers) {
      ++expected[static_cast<std::size_t>(tree_.node(b.node).tile)];
    }
    for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
      EXPECT_EQ(graph_.site_usage(t), expected[static_cast<std::size_t>(t)])
          << "tile " << t;
      EXPECT_LE(graph_.site_usage(t), graph_.site_supply(t)) << "tile " << t;
    }
  }

  static std::uint64_t counter(obs::Counter c) {
    return obs::Registry::instance().snapshot()[c];
  }

  tile::TileGraph graph_;
  route::RouteTree tree_;
  const buffer::BufferLibrary library_{};
};

TEST_F(BufferCommitTest, OversubscribedTileIsForbiddenAndTheRetryCommits) {
  occupy(at(2, 4), /*supply=*/5, /*used=*/4);
  occupy(at(2, 2), /*supply=*/5, /*used=*/4);
  const std::vector<std::int32_t> before = site_usage();

  NetState state;
  ASSERT_TRUE(commit_net_buffers(graph_, tree_, kL, library_, {},
                                 BufferDp::kRelaxed, state));

  // The retry moved both gates to the branch heads.
  ASSERT_EQ(state.buffers.size(), 2u);
  std::vector<tile::TileId> tiles;
  for (const route::BufferPlacement& b : state.buffers) {
    tiles.push_back(tree_.node(b.node).tile);
  }
  std::sort(tiles.begin(), tiles.end());
  std::vector<tile::TileId> heads{at(2, 4), at(2, 2)};
  std::sort(heads.begin(), heads.end());
  EXPECT_EQ(tiles, heads);
  EXPECT_TRUE(state.meets_length_rule);
  EXPECT_TRUE(meets_length_rule(tree_, state.buffers, kL));
  EXPECT_TRUE(state.buffer_types.empty());  // unit library: no tags

  EXPECT_EQ(counter(obs::Counter::kBufferCommitRetries), 1u);
  EXPECT_EQ(counter(obs::Counter::kBuffersCommitted), 2u);
  expect_books_match(before, state);
}

TEST_F(BufferCommitTest, StrictInfeasibleResultParksWithBooksUntouched) {
  // No branch-head sites: once S is forbidden no legal buffering exists.
  const std::vector<std::int32_t> before = site_usage();

  NetState state;
  state.meets_length_rule = true;  // sentinel: must survive the park
  EXPECT_FALSE(commit_net_buffers(graph_, tree_, kL, library_, {},
                                  BufferDp::kStrictOrPark, state));
  EXPECT_TRUE(state.buffers.empty());
  EXPECT_TRUE(state.meets_length_rule);
  EXPECT_EQ(site_usage(), before);
  EXPECT_EQ(counter(obs::Counter::kBufferCommitRetries), 1u);
  EXPECT_EQ(counter(obs::Counter::kBuffersCommitted), 0u);

  // The relaxed variant on the same books commits an over-L result
  // instead, honestly flagged.
  EXPECT_TRUE(commit_net_buffers(graph_, tree_, kL, library_, {},
                                 BufferDp::kRelaxed, state));
  EXPECT_FALSE(state.meets_length_rule);
  expect_books_match(before, state);
}

}  // namespace
}  // namespace rabid::core
