#include "core/twopath.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "buffer/library.hpp"
#include "core/two_path_polish.hpp"
#include "route/maze.hpp"

namespace rabid::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

tile::TileGraph make_graph(std::int32_t cap = 4) {
  tile::TileGraph g(geom::Rect{{0, 0}, {900, 900}}, 9, 9);
  g.set_uniform_wire_capacity(cap);
  return g;
}

TEST(RouteTwoPath, StraightCorridorNoBufferNeeded) {
  const tile::TileGraph g = make_graph();
  const auto wire = [&](tile::EdgeId e) { return route::soft_wire_cost(g, e); };
  const auto site = [](tile::TileId) { return 1.0; };
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({3, 0}),
                                        /*L=*/5, wire, site);
  EXPECT_EQ(r.tiles.size(), 4U);
  EXPECT_EQ(r.tiles.front(), g.id_of({0, 0}));
  EXPECT_EQ(r.tiles.back(), g.id_of({3, 0}));
  // 3 edges at eq.(1) cost 1/4 each; no buffer required within L.
  EXPECT_NEAR(r.cost, 3.0 * 0.25, 1e-12);
}

TEST(RouteTwoPath, LongRunMustPayForBuffers) {
  const tile::TileGraph g = make_graph();
  const auto wire = [&](tile::EdgeId e) { return route::soft_wire_cost(g, e); };
  const auto site = [](tile::TileId) { return 10.0; };
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({8, 0}),
                                        /*L=*/3, wire, site);
  // 8 edges, buffer every <=3 tiles: at least 2 buffers => cost >= 20.
  EXPECT_GE(r.cost, 20.0);
  EXPECT_LT(r.cost, kInf);
  EXPECT_EQ(r.tiles.front(), g.id_of({0, 0}));
  EXPECT_EQ(r.tiles.back(), g.id_of({8, 0}));
}

TEST(RouteTwoPath, PrefersBufferRichDetour) {
  tile::TileGraph g = make_graph();
  const auto wire = [&](tile::EdgeId e) { return route::soft_wire_cost(g, e); };
  // Sites only on row 2; a run along row 0 cannot buffer.
  const auto site = [&](tile::TileId t) {
    return g.coord_of(t).y == 2 ? 0.5 : kInf;
  };
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({8, 0}),
                                        /*L=*/4, wire, site);
  ASSERT_TRUE(std::isfinite(r.cost));
  // The path must dip to row 2 to buffer.
  bool touches_row2 = false;
  for (const tile::TileId t : r.tiles) {
    if (g.coord_of(t).y == 2) touches_row2 = true;
  }
  EXPECT_TRUE(touches_row2);
}

TEST(RouteTwoPath, FallsBackWhenUnbufferable) {
  const tile::TileGraph g = make_graph();
  const auto wire = [&](tile::EdgeId e) { return route::soft_wire_cost(g, e); };
  const auto site = [](tile::TileId) { return kInf; };  // no sites anywhere
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({8, 8}),
                                        /*L=*/3, wire, site);
  EXPECT_TRUE(std::isinf(r.cost));  // marked as rule-violating
  EXPECT_EQ(r.tiles.front(), g.id_of({0, 0}));
  EXPECT_EQ(r.tiles.back(), g.id_of({8, 8}));  // but still connected
}

TEST(RouteTwoPath, SameTileEndpoints) {
  const tile::TileGraph g = make_graph();
  const auto wire = [&](tile::EdgeId e) { return route::soft_wire_cost(g, e); };
  const auto site = [](tile::TileId) { return 1.0; };
  const TwoPathRoute r =
      route_two_path(g, g.id_of({4, 4}), g.id_of({4, 4}), 3, wire, site);
  EXPECT_EQ(r.tiles, (std::vector<tile::TileId>{g.id_of({4, 4})}));
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

route::RouteTree y_tree(const tile::TileGraph& g) {
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 3; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  route::NodeId up = cur;
  for (std::int32_t y = 1; y <= 3; ++y) up = t.add_child(up, g.id_of({3, y}));
  t.add_sink(up);
  route::NodeId right = cur;
  for (std::int32_t x = 4; x <= 6; ++x)
    right = t.add_child(right, g.id_of({x, 0}));
  t.add_sink(right);
  return t;
}

TEST(TileTreeEditor, RebuildIdentityWithoutEdits) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(g);
  editor.reset(t);
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  EXPECT_EQ(r.node_count(), t.node_count());
  EXPECT_EQ(r.wirelength_tiles(), t.wirelength_tiles());
  EXPECT_EQ(r.total_sinks(), t.total_sinks());
  for (const route::RouteNode& n : t.nodes()) {
    EXPECT_TRUE(r.contains(n.tile));
  }
}

TEST(TileTreeEditor, ReplaceTwoPathReroutesBranch) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(g);
  editor.reset(t);
  // Replace the right branch (3,0)->(6,0) with a detour through row 1.
  const std::vector<tile::TileId> interior{g.id_of({4, 0}), g.id_of({5, 0})};
  editor.remove_path(g.id_of({3, 0}), interior, g.id_of({6, 0}));
  const std::vector<tile::TileId> detour{
      g.id_of({3, 0}), g.id_of({3, 1}), g.id_of({4, 1}), g.id_of({5, 1}),
      g.id_of({6, 1}), g.id_of({6, 0})};
  editor.add_path(detour);
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  EXPECT_EQ(r.total_sinks(), 2);
  EXPECT_TRUE(r.contains(g.id_of({6, 0})));
  EXPECT_TRUE(r.contains(g.id_of({4, 1})));
  EXPECT_FALSE(r.contains(g.id_of({4, 0})));  // old path pruned
  EXPECT_FALSE(r.contains(g.id_of({5, 0})));
}

TEST(TileTreeEditor, PrunesDanglingStubsAfterCyclicAdd) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(g);
  editor.reset(t);
  // Add a path that closes a cycle: (3,3) back down to (6,0) via row 3.
  const std::vector<tile::TileId> loop{
      g.id_of({3, 3}), g.id_of({4, 3}), g.id_of({5, 3}), g.id_of({6, 3}),
      g.id_of({6, 2}), g.id_of({6, 1}), g.id_of({6, 0})};
  editor.add_path(loop);
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  // Still a tree with both sinks; no node repeated.
  EXPECT_EQ(r.total_sinks(), 2);
  EXPECT_TRUE(r.contains(g.id_of({3, 3})));
  EXPECT_TRUE(r.contains(g.id_of({6, 0})));
}

TEST(TileTreeEditor, CollapsedTwoPathLeavesValidTree) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(g);
  editor.reset(t);
  // Degenerate "reroute": remove the up-branch and re-add it verbatim.
  const std::vector<tile::TileId> interior{g.id_of({3, 1}), g.id_of({3, 2})};
  editor.remove_path(g.id_of({3, 0}), interior, g.id_of({3, 3}));
  editor.add_path(std::vector<tile::TileId>{g.id_of({3, 3}), g.id_of({3, 2}),
                                            g.id_of({3, 1}), g.id_of({3, 0})});
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  EXPECT_EQ(r.wirelength_tiles(), t.wirelength_tiles());
  EXPECT_EQ(r.total_sinks(), 2);
}

/// One editor serves every net of a pass: reset() must forget the
/// previous net entirely — its arcs, sinks and edits — so the next net
/// rebuilds exactly as it would in a fresh editor.
TEST(TileTreeEditor, ResetForgetsThePreviousNet) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree first = y_tree(g);
  route::RouteTree second(g.id_of({8, 8}));
  route::NodeId cur = second.root();
  for (std::int32_t y = 7; y >= 5; --y) {
    cur = second.add_child(cur, g.id_of({8, y}));
  }
  second.add_sink(cur);

  TileTreeEditor reused(g);
  reused.reset(first);
  reused.add_path(std::vector<tile::TileId>{g.id_of({6, 0}), g.id_of({7, 0}),
                                            g.id_of({8, 0})});
  reused.rebuild();
  reused.reset(second);
  EXPECT_FALSE(reused.in_tree(g.id_of({0, 0})));
  EXPECT_FALSE(reused.in_tree(g.id_of({3, 3})));
  EXPECT_FALSE(reused.in_tree(g.id_of({8, 0})));
  EXPECT_TRUE(reused.in_tree(g.id_of({8, 6})));

  TileTreeEditor fresh(g);
  fresh.reset(second);
  const route::RouteTree got = reused.rebuild();
  const route::RouteTree want = fresh.rebuild();
  got.verify(g);
  ASSERT_EQ(got.node_count(), want.node_count());
  for (std::size_t i = 0; i < got.node_count(); ++i) {
    const auto n = static_cast<route::NodeId>(i);
    EXPECT_EQ(got.node(n).tile, want.node(n).tile);
    EXPECT_EQ(got.node(n).parent, want.node(n).parent);
    EXPECT_EQ(got.node(n).sink_count, want.node(n).sink_count);
  }
}

/// The stage-4 capacity guard.  A row-0 net of four arcs needs a buffer
/// for the two-path search's (tile x L) rule at L = 4, and its only
/// buffer site sits on row 1 behind zero-capacity vertical edges, so
/// every L-feasible reconnection overflows.  The search still returns
/// one (a full edge costs the finite kOverflowPenalty): other nets' wires
/// make row 0 dearer than row 1, so it is the all-row-1 detour, not a
/// stub up to the site and back.  The polish must put the ripped path
/// back.
TEST(TwoPathPolish, KeepsRippedPathWhenEveryFeasibleReconnectionOverflows) {
  tile::TileGraph g(geom::Rect{{0, 0}, {500, 200}}, 5, 2);
  g.set_uniform_wire_capacity(4);
  for (std::int32_t x = 0; x < 5; ++x) {
    g.set_wire_capacity(g.edge_between(g.id_of({x, 0}), g.id_of({x, 1})), 0);
  }
  for (std::int32_t x = 0; x + 1 < 5; ++x) {
    const tile::EdgeId e = g.edge_between(g.id_of({x, 0}), g.id_of({x + 1, 0}));
    g.add_wire(e);
    g.add_wire(e);
  }
  g.set_site_supply(g.id_of({2, 1}), 1);
  route::EdgeCostCache cache(
      g, [&](tile::EdgeId e) { return route::soft_wire_cost(g, e); });
  std::vector<double> sites(static_cast<std::size_t>(g.tile_count()));
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    sites[static_cast<std::size_t>(t)] = g.buffer_cost(t, 0.0);
  }
  const TwoPathRoute detour = route_two_path(
      g, g.id_of({4, 0}), g.id_of({0, 0}), /*L=*/4, cache.values(), sites);
  ASSERT_TRUE(std::isfinite(detour.cost));
  ASSERT_GE(detour.cost, route::kOverflowPenalty);

  NetState net;
  net.tree = route::RouteTree(g.id_of({0, 0}));
  route::NodeId n = net.tree.root();
  for (std::int32_t x = 1; x < 5; ++x) {
    n = net.tree.add_child(n, g.id_of({x, 0}));
  }
  net.tree.add_sink(n);
  net.tree.commit(g);
  cache.refresh_tree(net.tree);

  const buffer::BufferLibrary library;
  TwoPathPolish polish(g, cache, library, 1.0, 1.0);
  polish.polish(net, /*L=*/4, /*width=*/1);

  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_LE(g.wire_usage(e), g.wire_capacity(e)) << "edge " << e;
  }
  ASSERT_EQ(net.tree.node_count(), 5U);
  for (std::int32_t x = 0; x < 5; ++x) {
    EXPECT_TRUE(net.tree.contains(g.id_of({x, 0}))) << "x=" << x;
  }
  EXPECT_EQ(net.tree.total_sinks(), 1);
  EXPECT_TRUE(net.buffers.empty());  // no site on row 0
}

}  // namespace
}  // namespace rabid::core
