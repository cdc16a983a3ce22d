#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "core/twopath.hpp"
#include "route/maze.hpp"
#include "util/rng.hpp"

namespace rabid::core {
namespace {

/// The two-path oracle battery: TwoPathSearch::route against references
/// that share none of its machinery, on 1024 seeded instances (8 seeds x
/// 128).  Each instance is a grid of at most 6x6 tiles with L in 1..5,
/// eq. (1) wire costs over random capacities and usage — zero-capacity
/// and full edges included, both priced at route::kOverflowPenalty —
/// random q(v) with blocked (+inf) sites, and wire/buffer weights other
/// than 1.  Every instance runs at astar_floor 0 and at two positive
/// floors.

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Instance {
  explicit Instance(tile::TileGraph graph) : g(std::move(graph)) {}

  /// Weighted eq. (1) cost of crossing edge `e`.
  double step(tile::EdgeId e) const {
    return wire_weight * wires[static_cast<std::size_t>(e)];
  }
  /// Weighted q(t); +inf where `t` has no site.
  double buffer(tile::TileId t) const {
    return buffer_weight * sites[static_cast<std::size_t>(t)];
  }

  tile::TileGraph g;
  std::vector<double> wires;  ///< per edge, eq. (1) soft cost
  std::vector<double> sites;  ///< per tile, q(v) (+inf = blocked)
  double wire_weight = 1.0;
  double buffer_weight = 1.0;
  double floor = 0.0;  ///< min wire cost: the tightest admissible floor
};

Instance random_instance(util::Rng& rng) {
  const auto nx = static_cast<std::int32_t>(rng.uniform_int(1, 6));
  const auto ny = static_cast<std::int32_t>(rng.uniform_int(1, 6));
  const geom::Rect chip{{0, 0}, {100.0 * nx, 100.0 * ny}};
  Instance in{tile::TileGraph(chip, nx, ny)};
  tile::TileGraph& g = in.g;
  in.wires.resize(static_cast<std::size_t>(g.edge_count()));
  in.floor = kInf;
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto cap = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    g.set_wire_capacity(e, cap);
    // Usage up to one past capacity: free, full and overflowing edges.
    const auto use = static_cast<std::int32_t>(rng.uniform_int(0, cap + 1));
    for (std::int32_t k = 0; k < use; ++k) g.add_wire(e);
    in.wires[static_cast<std::size_t>(e)] = route::soft_wire_cost(g, e);
    in.floor = std::min(in.floor, in.wires[static_cast<std::size_t>(e)]);
  }
  if (g.edge_count() == 0) in.floor = 1.0;  // one tile: any floor is sound
  in.sites.resize(static_cast<std::size_t>(g.tile_count()));
  for (double& q : in.sites) {
    if (rng.chance(0.25)) {
      q = kInf;
    } else if (rng.chance(0.05)) {
      q = 0.0;
    } else {
      q = rng.uniform(0.1, 4.0);
    }
  }
  constexpr double kWireWeights[] = {1.0, 0.5, 2.0, 3.7};
  constexpr double kBufferWeights[] = {1.0, 0.25, 2.0, 5.0};
  in.wire_weight = kWireWeights[rng.uniform_int(0, 3)];
  in.buffer_weight = kBufferWeights[rng.uniform_int(0, 3)];
  return in;
}

/// Optimum over the (tile, j) state space by value iteration
/// (Bellman-Ford to a fixed point): an independent formulation of the
/// search's model — a step needs j + 1 < L, a buffer at a site resets a
/// run j > 0 to 0, any j may end at `to`.
double value_iteration(const Instance& in, tile::TileId from,
                       tile::TileId to, std::int32_t L) {
  const tile::TileGraph& g = in.g;
  const auto n_states =
      static_cast<std::size_t>(g.tile_count()) * static_cast<std::size_t>(L);
  auto state_of = [&](tile::TileId t, std::int32_t j) {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(L) +
           static_cast<std::size_t>(j);
  };
  std::vector<double> dist(n_states, kInf);
  dist[state_of(from, 0)] = 0.0;
  for (std::size_t round = 0; round <= n_states; ++round) {
    bool changed = false;
    for (tile::TileId t = 0; t < g.tile_count(); ++t) {
      for (std::int32_t j = 0; j < L; ++j) {
        const double d = dist[state_of(t, j)];
        if (!std::isfinite(d)) continue;
        const double q = in.buffer(t);
        if (j > 0 && std::isfinite(q) && d + q < dist[state_of(t, 0)]) {
          dist[state_of(t, 0)] = d + q;
          changed = true;
        }
        if (j + 1 < L) {
          tile::TileId nbr[4];
          const int cnt = g.neighbors(t, nbr);
          for (int k = 0; k < cnt; ++k) {
            const double nd = d + in.step(g.edge_between(t, nbr[k]));
            if (nd < dist[state_of(nbr[k], j + 1)]) {
              dist[state_of(nbr[k], j + 1)] = nd;
              changed = true;
            }
          }
        }
      }
    }
    if (!changed) break;
  }
  double best = kInf;
  for (std::int32_t j = 0; j < L; ++j) {
    best = std::min(best, dist[state_of(to, j)]);
  }
  return best;
}

/// The best buffered cost along a fixed tile walk, under the same model:
/// a DP over (position, run length).  Each consecutive pair must be
/// adjacent (returns NaN otherwise).
double best_cost_along(const Instance& in, const std::vector<tile::TileId>& w,
                       std::int32_t L) {
  const tile::TileGraph& g = in.g;
  std::vector<double> run(static_cast<std::size_t>(L), kInf);
  run[0] = 0.0;
  for (std::size_t i = 0;; ++i) {
    // Buffer at w[i]: any run j > 0 may reset to 0.
    const double q = in.buffer(w[i]);
    for (std::size_t j = 1; j < run.size() && std::isfinite(q); ++j) {
      run[0] = std::min(run[0], run[j] + q);
    }
    if (i + 1 == w.size()) break;
    const tile::EdgeId e = g.edge_between(w[i], w[i + 1]);
    if (e == tile::kNoEdge) return std::numeric_limits<double>::quiet_NaN();
    std::vector<double> next(run.size(), kInf);
    for (std::size_t j = 0; j + 1 < run.size(); ++j) {
      next[j + 1] = run[j] + in.step(e);
    }
    run = std::move(next);
  }
  return *std::min_element(run.begin(), run.end());
}

/// Plain (tile x L) Dijkstra with no pruning and no heuristic, ordered
/// exactly like TwoPathSearch at astar_floor 0: key = cost, ties by the
/// packed state id (tile << bit_width(L - 1)) | j, labels replaced only
/// on strict improvement.  The reference for tie-breaking.
TwoPathRoute plain_dijkstra(const Instance& in, tile::TileId from,
                            tile::TileId to, std::int32_t L) {
  const tile::TileGraph& g = in.g;
  const std::uint32_t shift =
      L <= 1 ? 0U : std::bit_width(static_cast<std::uint32_t>(L - 1));
  const auto state_of = [&](tile::TileId t, std::int32_t j) {
    return (static_cast<std::size_t>(t) << shift) | static_cast<std::size_t>(j);
  };
  const std::size_t n = static_cast<std::size_t>(g.tile_count()) << shift;
  std::vector<double> dist(n, kInf);
  std::vector<std::int64_t> prev(n, -2);
  using Item = std::tuple<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const auto relax = [&](std::size_t s, double d, std::size_t p) {
    if (prev[s] == -2 || d < dist[s]) {
      dist[s] = d;
      prev[s] = static_cast<std::int64_t>(p);
      heap.emplace(d, s);
    }
  };
  const std::size_t start = state_of(from, 0);
  dist[start] = 0.0;
  prev[start] = -1;
  heap.emplace(0.0, start);
  while (!heap.empty()) {
    const auto [d, s] = heap.top();
    heap.pop();
    if (d > dist[s]) continue;
    const auto t = static_cast<tile::TileId>(s >> shift);
    const auto j = static_cast<std::int32_t>(s & ((1U << shift) - 1));
    if (t == to) {
      TwoPathRoute out;
      out.cost = d;
      for (std::int64_t c = static_cast<std::int64_t>(s); c >= 0;
           c = prev[static_cast<std::size_t>(c)]) {
        const auto ct = static_cast<tile::TileId>(
            static_cast<std::size_t>(c) >> shift);
        if (out.tiles.empty() || out.tiles.back() != ct) {
          out.tiles.push_back(ct);
        }
      }
      std::reverse(out.tiles.begin(), out.tiles.end());
      return out;
    }
    const double q = in.buffer(t);
    if (j > 0 && std::isfinite(q)) relax(state_of(t, 0), d + q, s);
    if (j + 1 < L) {
      tile::TileId nbr[4];
      const int cnt = g.neighbors(t, nbr);
      for (int k = 0; k < cnt; ++k) {
        const double nd = d + in.step(g.edge_between(t, nbr[k]));
        relax(state_of(nbr[k], j + 1), nd, s);
      }
    }
  }
  return {{}, kInf};
}

bool near(double got, double want) {
  if (std::isinf(want)) return std::isinf(got);
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

class TwoPathOptimality : public ::testing::TestWithParam<std::uint64_t> {};

/// Cost equals the value-iteration optimum; the returned tiles are an
/// adjacent walk from -> to whose own best buffering costs exactly that
/// optimum; and at floor 0 the route equals plain Dijkstra's, tiles
/// included — the dominance pruning changes no tie-break.
TEST_P(TwoPathOptimality, DijkstraMatchesValueIteration) {
  util::Rng rng(GetParam() * 104729);
  int finite = 0;
  int unreachable = 0;
  for (int instance = 0; instance < 128; ++instance) {
    const Instance in = random_instance(rng);
    const tile::TileGraph& g = in.g;
    ASSERT_GT(in.floor, 0.0);
    const auto a =
        static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
    const auto b =
        static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 5));
    const double want = value_iteration(in, a, b, L);
    std::isinf(want) ? ++unreachable : ++finite;
    TwoPathSearch search(g);
    for (const double astar_floor : {0.0, 0.5 * in.floor, in.floor}) {
      const TwoPathRoute got =
          search.route(a, b, L, in.wires, in.sites, in.wire_weight,
                       in.buffer_weight, astar_floor);
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << GetParam() << " instance=" << instance
                   << " grid=" << g.nx() << "x" << g.ny() << " a=" << a
                   << " b=" << b << " L=" << L << " floor=" << astar_floor);
      EXPECT_TRUE(near(got.cost, want)) << got.cost << " vs " << want;
      ASSERT_FALSE(got.tiles.empty());
      EXPECT_EQ(got.tiles.front(), a);
      EXPECT_EQ(got.tiles.back(), b);
      const double along = best_cost_along(in, got.tiles, L);
      ASSERT_FALSE(std::isnan(along)) << "returned tiles are not a walk";
      EXPECT_TRUE(near(along, want)) << along << " vs " << want;
      if (astar_floor == 0.0 && std::isfinite(want)) {
        const TwoPathRoute ref = plain_dijkstra(in, a, b, L);
        EXPECT_EQ(got.tiles, ref.tiles);
        EXPECT_EQ(got.cost, ref.cost);
      }
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(finite, 64);
  EXPECT_GT(unreachable, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoPathOptimality,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// One TwoPathSearch serving a long sequence of pairs — many sharing a
/// goal, as the two-paths of one net do — returns bit-for-bit what a
/// fresh instance returns for each pair: warm scratch leaks nothing.
TEST(TwoPathOracle, ReusedSearchMatchesFreshInstance) {
  util::Rng rng(20261019);
  for (int instance = 0; instance < 16; ++instance) {
    const Instance in = random_instance(rng);
    const tile::TileGraph& g = in.g;
    TwoPathSearch reused(g);
    std::vector<tile::TileId> goals;
    for (int k = 0; k < 3; ++k) {
      goals.push_back(
          static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1)));
    }
    for (int pair = 0; pair < 24; ++pair) {
      const auto a =
          static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
      const tile::TileId b = goals[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(goals.size()) - 1))];
      const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 5));
      const double astar_floor = rng.chance(0.5) ? in.floor : 0.0;
      const TwoPathRoute got =
          reused.route(a, b, L, in.wires, in.sites, in.wire_weight,
                       in.buffer_weight, astar_floor);
      TwoPathSearch fresh(g);
      const TwoPathRoute want =
          fresh.route(a, b, L, in.wires, in.sites, in.wire_weight,
                      in.buffer_weight, astar_floor);
      EXPECT_EQ(got.tiles, want.tiles)
          << "instance=" << instance << " pair=" << pair;
      EXPECT_EQ(std::isinf(got.cost), std::isinf(want.cost));
      if (std::isfinite(want.cost)) {
        EXPECT_EQ(got.cost, want.cost);
      }
    }
  }
}

/// Wire-only distance to `goal` by Bellman-Ford to a fixed point: the
/// minimum over paths of the float sum accumulated from the goal, which
/// any correct Dijkstra over the same costs reproduces bit for bit
/// (rounded addition is monotone and the costs are non-negative).
std::vector<double> wire_fixpoint(const tile::TileGraph& g,
                                  const std::vector<double>& wires,
                                  tile::TileId goal) {
  std::vector<double> dist(static_cast<std::size_t>(g.tile_count()), kInf);
  dist[static_cast<std::size_t>(goal)] = 0.0;
  for (bool changed = true; changed;) {
    changed = false;
    for (tile::TileId t = 0; t < g.tile_count(); ++t) {
      const double d = dist[static_cast<std::size_t>(t)];
      if (!std::isfinite(d)) continue;
      tile::TileId nbr[4];
      const int cnt = g.neighbors(t, nbr);
      for (int k = 0; k < cnt; ++k) {
        const double nd =
            d + wires[static_cast<std::size_t>(g.edge_between(t, nbr[k]))];
        double& to = dist[static_cast<std::size_t>(nbr[k])];
        if (nd < to) {
          to = nd;
          changed = true;
        }
      }
    }
  }
  return dist;
}

/// The heuristic field under tie-prone wire costs (multiples of 1/3, 0.1
/// and 0.2, whose float sums tie exactly or miss each other by an ulp):
/// every tile the field settles holds the wire fixpoint bit for bit.
/// Two heap entries of one tile can tie on (key, tile) with d an ulp
/// apart; a settle loop that expanded from the popped entry's own d
/// instead of the tile's label would spread the worse value.
TEST(TwoPathOracle, FieldSettlesToTheFloatFixpoint) {
  constexpr double kSteps[] = {1 / 3.0, 2 / 3.0, 0.1, 0.2, 0.3, 0.4, 0.6};
  util::Rng rng(20261020);
  std::int64_t settled = 0;
  for (int instance = 0; instance < 128; ++instance) {
    const auto nx = static_cast<std::int32_t>(rng.uniform_int(2, 16));
    const auto ny = static_cast<std::int32_t>(rng.uniform_int(2, 16));
    const geom::Rect chip{{0, 0}, {100.0 * nx, 100.0 * ny}};
    const tile::TileGraph g(chip, nx, ny);
    std::vector<double> wires(static_cast<std::size_t>(g.edge_count()));
    for (double& w : wires) w = kSteps[rng.uniform_int(0, 6)];
    const auto n_tiles = static_cast<std::size_t>(g.tile_count());
    const std::vector<double> sites(n_tiles, 0.5);
    const double floor = *std::min_element(wires.begin(), wires.end());
    TwoPathSearch search(g);
    for (int pair = 0; pair < 8; ++pair) {
      const auto a =
          static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
      const auto b =
          static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
      const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 6));
      search.route(a, b, L, wires, sites, 1.0, 1.0, floor);
      const std::vector<double> want = wire_fixpoint(g, wires, b);
      for (tile::TileId t = 0; t < g.tile_count(); ++t) {
        const double got = search.field_value(t);
        if (std::isnan(got)) continue;
        ++settled;
        const double ref = want[static_cast<std::size_t>(t)];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(ref))
            << "instance=" << instance << " pair=" << pair << " tile=" << t
            << ": " << got << " vs " << ref;
      }
    }
  }
  EXPECT_GT(settled, 5000);
}

}  // namespace
}  // namespace rabid::core
