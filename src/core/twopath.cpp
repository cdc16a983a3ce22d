#include "core/twopath.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

TwoPathSearch::TwoPathSearch(const tile::TileGraph& g)
    : g_(g), field_(static_cast<std::size_t>(g.tile_count())) {
  // The per-tile coordinate table replaces coord_of() in the field's
  // push loop: same values, no div/mod per relaxation.
  coords_.reserve(static_cast<std::size_t>(g.tile_count()));
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    coords_.push_back(g.coord_of(t));
  }
  // Pre-size both heaps from the graph so the searches never reallocate
  // mid-wavefront (kHeapRegrows counts any push that still does).
  heap_.reserve(static_cast<std::size_t>(g.tile_count()));
  field_heap_.reserve(static_cast<std::size_t>(g.tile_count()));
}

void TwoPathSearch::ensure_states(std::size_t n_states) {
  RABID_ASSERT_MSG(
      n_states <= static_cast<std::size_t>(
                      std::numeric_limits<std::int32_t>::max()),
      "(tile x L) state space exceeds the 31-bit label encoding");
  if (labels_.size() < n_states) {
    labels_.resize(n_states, Label{0.0, -2, 0});
  }
}

double TwoPathSearch::field_settle(tile::TileId t,
                                   std::span<const double> wire_cost) {
  const auto ti = static_cast<std::size_t>(t);
  while (field_[ti].settled != epoch_) {
    RABID_ASSERT_MSG(!field_heap_.empty(), "heuristic field ran dry");
    const FieldEntry top = field_heap_.pop();
    ++field_pops_;
    const auto ui = static_cast<std::size_t>(top.t);
    if (field_[ui].settled == epoch_) continue;  // stale heap entry
    field_[ui].settled = epoch_;
    // Expand from the tile's label, not top.d: the popped entry may be
    // an ulp-worse twin of the best one (see FieldEntry).
    const double du = field_[ui].dist;
    const tile::TileGraph::Adjacency* adj = g_.adjacency(top.t);
    const int cnt = g_.adj_count(top.t);
    for (int k = 0; k < cnt; ++k) {
      const double nd = du + wire_cost[static_cast<std::size_t>(adj[k].edge)];
      const auto vi = static_cast<std::size_t>(adj[k].tile);
      FieldLabel& fl = field_[vi];
      if (fl.seen != epoch_ || nd < fl.dist) {
        fl.seen = epoch_;
        fl.dist = nd;
        const double bound =
            field_floor_ *
            static_cast<double>(geom::manhattan(coords_[vi], field_hot_));
        field_heap_.push({nd + bound, nd, adj[k].tile});
      }
    }
  }
  return field_[ti].dist;
}

TwoPathRoute TwoPathSearch::route(tile::TileId from, tile::TileId to,
                                  std::int32_t L,
                                  std::span<const double> wire_cost,
                                  std::span<const double> buffer_cost,
                                  double wire_weight, double buffer_weight,
                                  double astar_floor) {
  RABID_ASSERT(L >= 1);
  RABID_ASSERT(wire_weight >= 0.0 && buffer_weight >= 0.0);
  const auto n_tiles = static_cast<std::size_t>(g_.tile_count());
  // Power-of-two row stride: state = (tile << shift) | j.  The mapping
  // is strictly increasing in lexicographic (tile, j) exactly like the
  // old tile * L + j packing (j < L <= stride), so the heap's id
  // tie-break — and therefore every pop — is unchanged; decode becomes
  // shift/mask instead of div/mod.
  const std::uint32_t shift =
      L <= 1 ? 0U : std::bit_width(static_cast<std::uint32_t>(L - 1));
  const std::size_t jmask = (std::size_t{1} << shift) - 1;
  ensure_states(n_tiles << shift);
  ++epoch_;
  heap_.clear();
  auto state_of = [&](tile::TileId t, std::int32_t j) {
    return (static_cast<std::size_t>(t) << shift) |
           static_cast<std::size_t>(j);
  };
  auto touch = [&](std::size_t s, double d, std::int32_t p) {
    labels_[s] = Label{d, p, epoch_};
  };

  // A* bound per *tile* (states of one tile share it): the exact wire-
  // only distance to the goal, settled lazily by a goal-rooted backward
  // Dijkstra (see the class comment for the admissibility argument).
  const bool use_h = astar_floor > 0.0;
  if (use_h) {
    field_heap_.clear();
    field_[static_cast<std::size_t>(to)].seen = epoch_;
    field_[static_cast<std::size_t>(to)].dist = 0.0;
    // Aim the field at the forward source: astar_floor is a lower bound
    // on every wire_cost entry, so floor * manhattan is consistent for
    // the field's own expansion.  The bound gives up 2^-20 of the floor
    // per step.  At the full floor, keys along a floor-cost run are equal
    // in exact arithmetic, and float rounding of labels and keys (an ulp,
    // ~2^-53 of the distance) could then settle a tile from an ulp-worse
    // neighbour first.  With the slack, keys along a shortest path rise
    // by floor * 2^-20 per step, far above that rounding while distances
    // stay below ~2^30 floors, so the path settles before the tile and
    // every settled value is the float fixpoint (twopath_oracle_test).
    field_hot_ = g_.coord_of(from);
    field_floor_ = astar_floor * (1.0 - 0x1p-20);
    field_heap_.push(
        {field_floor_ * static_cast<double>(
                            geom::manhattan(g_.coord_of(to), field_hot_)),
         0.0, to});
  }
  const auto h_of = [&](tile::TileId t) -> double {
    if (!use_h) return 0.0;
    return wire_weight * field_distance(t, wire_cost);
  };

  // (tile x L) heap work, flushed to the registry once per search.
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  field_pops_ = 0;

  // Start at the tail with j = 0 (the tail end is an anchor; the exact
  // downstream slack is re-established by the net-wide re-buffering).
  const std::size_t start = state_of(from, 0);
  touch(start, 0.0, -1);
  heap_push({h_of(from), 0.0, start});
  ++pushes;

  // j-dominance: (t, j) at cost d is dominated when a same-tile label
  // of this epoch with a shorter run j' < j already costs <= d — every
  // extension of (t, j) is feasible from (t, j') at no more cost (see
  // the class comment).  The tile's labels share one row, so the scan
  // reads one or two cache lines.
  const auto dominated = [&](std::size_t s, std::size_t j, double d) {
    for (std::size_t row = s - j; row < s; ++row) {
      const Label& l = labels_[row];
      if (l.stamp == epoch_ && l.dist <= d) return true;
    }
    return false;
  };

  // The heuristic is evaluated only when a relaxation actually improves
  // a label: h(t) is a fixed value per tile (the exact wire field), so
  // skipping it for rejected relaxations cannot change any pushed key —
  // it only avoids settling field tiles nobody ends up needing.
  auto relax = [&](std::size_t s, double d, std::size_t from_state,
                   tile::TileId t) {
    Label& lbl = labels_[s];
    if ((lbl.stamp != epoch_ || d < lbl.dist) && !dominated(s, s & jmask, d)) {
      lbl = Label{d, static_cast<std::int32_t>(from_state), epoch_};
      heap_push({d + h_of(t), d, s});
      ++pushes;
    }
  };

  std::size_t goal = static_cast<std::size_t>(-1);
  while (!heap_.empty()) {
    const Entry top = heap_pop();
    ++pops;
    const auto s = static_cast<std::size_t>(top.s);
    if (top.d > labels_[s].dist) continue;
    const auto t = static_cast<tile::TileId>(s >> shift);
    const auto j = static_cast<std::int32_t>(s & jmask);
    if (t == to) {
      goal = s;
      break;
    }
    // A label dominated since it was pushed has nothing left to add.
    if (dominated(s, static_cast<std::size_t>(j), top.d)) continue;
    // Buffer here: pay q(t), reset the run length.
    if (j > 0) {
      const double q = buffer_cost[static_cast<std::size_t>(t)];
      if (std::isfinite(q)) {
        relax(state_of(t, 0), top.d + buffer_weight * q, s, t);
      }
    }
    // Step to a neighbor if the length rule still allows it.
    if (j + 1 < L) {
      const tile::TileGraph::Adjacency* adj = g_.adjacency(t);
      const int cnt = g_.adj_count(t);
      for (int k = 0; k < cnt; ++k) {
        relax(state_of(adj[k].tile, j + 1),
              top.d + wire_weight *
                          wire_cost[static_cast<std::size_t>(adj[k].edge)],
              s, adj[k].tile);
      }
    }
  }

  if (obs::counting()) {
    obs::count(obs::Counter::kTwoPathSearches);
    obs::count(obs::Counter::kTwoPathHeapPushes, pushes);
    obs::count(obs::Counter::kTwoPathHeapPops, pops);
    obs::count(obs::Counter::kTwoPathFieldPops, field_pops_);
    obs::count(obs::Counter::kHeapRegrows,
               heap_.take_regrows() + field_heap_.take_regrows());
  }

  TwoPathRoute out;
  if (goal == static_cast<std::size_t>(-1)) {
    // The length rule made `to` unreachable (e.g. a blocked moat wider
    // than L).  Fall back to a pure-wire shortest path; the net will be
    // counted as a length failure by the re-buffering step.
    route::MazeRouter fallback(g_);
    out.tiles = fallback.shortest_path(from, to, wire_cost, astar_floor);
    out.cost = kInf;
    return out;
  }

  out.cost = labels_[goal].dist;
  std::size_t s = goal;
  tile::TileId last = tile::kNoTile;
  while (true) {
    const auto t = static_cast<tile::TileId>(s >> shift);
    if (t != last) {
      out.tiles.push_back(t);
      last = t;
    }
    if (labels_[s].prev < 0) break;
    s = static_cast<std::size_t>(labels_[s].prev);
  }
  std::reverse(out.tiles.begin(), out.tiles.end());
  RABID_ASSERT(out.tiles.front() == from && out.tiles.back() == to);
  return out;
}

TwoPathRoute route_two_path(const tile::TileGraph& g, tile::TileId from,
                            tile::TileId to, std::int32_t L,
                            std::span<const double> wire_cost,
                            std::span<const double> buffer_cost,
                            double wire_weight, double buffer_weight,
                            double astar_floor) {
  TwoPathSearch search(g);
  return search.route(from, to, L, wire_cost, buffer_cost, wire_weight,
                      buffer_weight, astar_floor);
}

TwoPathRoute route_two_path(const tile::TileGraph& g, tile::TileId from,
                            tile::TileId to, std::int32_t L,
                            const route::EdgeCostFn& wire_cost,
                            const buffer::TileCostFn& buffer_cost,
                            double wire_weight, double buffer_weight) {
  std::vector<double> wires(static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    wires[static_cast<std::size_t>(e)] = wire_cost(e);
  }
  std::vector<double> sites(static_cast<std::size_t>(g.tile_count()));
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    sites[static_cast<std::size_t>(t)] = buffer_cost(t);
  }
  return route_two_path(g, from, to, L, wires, sites, wire_weight,
                        buffer_weight, /*astar_floor=*/0.0);
}

TileTreeEditor::TileTreeEditor(const tile::TileGraph& g)
    : g_(g), tiles_(static_cast<std::size_t>(g.tile_count())) {}

TileTreeEditor::TileArcs& TileTreeEditor::live(tile::TileId t) {
  TileArcs& a = tiles_[static_cast<std::size_t>(t)];
  if (a.epoch != epoch_) {
    a.epoch = epoch_;
    a.sinks = 0;
    a.degree = 0;
  }
  return a;
}

void TileTreeEditor::reset(const route::RouteTree& tree) {
  ++epoch_;
  source_ = tree.node(tree.root()).tile;
  sink_tiles_.clear();
  for (const route::RouteNode& n : tree.nodes()) {
    if (n.parent != route::kNoNode) {
      add_arc(n.tile, tree.node(n.parent).tile);
    }
    if (n.sink_count > 0) {
      TileArcs& a = live(n.tile);
      if (a.sinks == 0) sink_tiles_.push_back(n.tile);
      a.sinks += n.sink_count;
    }
  }
}

void TileTreeEditor::add_arc(tile::TileId a, tile::TileId b) {
  RABID_ASSERT(g_.edge_between(a, b) != tile::kNoEdge);
  TileArcs& na = live(a);
  const auto end = na.nbr.begin() + na.degree;
  if (std::find(na.nbr.begin(), end, b) != end) return;  // already
  TileArcs& nb = live(b);
  RABID_ASSERT(na.degree < 4 && nb.degree < 4);
  na.nbr[static_cast<std::size_t>(na.degree++)] = b;
  nb.nbr[static_cast<std::size_t>(nb.degree++)] = a;
}

void TileTreeEditor::remove_arc(tile::TileId a, tile::TileId b) {
  // Erase in place, keeping the survivors' insertion order.
  const auto erase = [](TileArcs& arcs, tile::TileId v) {
    const auto end = arcs.nbr.begin() + arcs.degree;
    const auto it = std::find(arcs.nbr.begin(), end, v);
    if (it == end) return false;
    std::copy(it + 1, end, it);
    --arcs.degree;
    return true;
  };
  TileArcs& na = live(a);
  if (!erase(na, b)) return;
  erase(live(b), a);
}

void TileTreeEditor::remove_path(tile::TileId head,
                                 std::span<const tile::TileId> interior,
                                 tile::TileId tail) {
  tile::TileId prev = head;
  for (const tile::TileId t : interior) {
    remove_arc(prev, t);
    prev = t;
  }
  remove_arc(prev, tail);
}

void TileTreeEditor::add_path(std::span<const tile::TileId> tiles) {
  for (std::size_t i = 1; i < tiles.size(); ++i) {
    add_arc(tiles[i - 1], tiles[i]);
  }
}

bool TileTreeEditor::in_tree(tile::TileId t) const {
  if (t == source_) return true;
  const TileArcs* a = find(t);
  return a != nullptr && (a->sinks > 0 || a->degree > 0);
}

route::RouteTree TileTreeEditor::rebuild(
    const std::function<bool(tile::TileId)>& keep) {
  // BFS from the source; arcs closing a cycle are dropped.  order_ is
  // both the queue and the node numbering (discovery order).
  ++visit_;
  order_.clear();
  parent_.clear();
  const auto discover = [&](tile::TileId t, std::int32_t parent) {
    tiles_[static_cast<std::size_t>(t)].visit = visit_;
    order_.push_back(t);
    parent_.push_back(parent);
  };
  discover(source_, -1);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const TileArcs* a = find(order_[i]);
    if (a == nullptr) continue;
    for (std::int32_t k = 0; k < a->degree; ++k) {
      const tile::TileId v = a->nbr[static_cast<std::size_t>(k)];
      if (tiles_[static_cast<std::size_t>(v)].visit == visit_) continue;
      discover(v, static_cast<std::int32_t>(i));
    }
  }
  for (const tile::TileId t : sink_tiles_) {
    RABID_ASSERT_MSG(tiles_[static_cast<std::size_t>(t)].visit == visit_,
                     "rebuild lost a sink tile");
  }

  // Prune useless leaves bottom-up: reverse discovery order visits
  // children first.  Then reassemble (RouteTree is append-only).
  const std::size_t n = order_.size();
  const auto sinks_at = [&](std::size_t i) {
    const TileArcs* a = find(order_[i]);
    return a == nullptr ? 0 : a->sinks;
  };
  live_children_.assign(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    ++live_children_[static_cast<std::size_t>(parent_[i])];
  }
  // live_children_[i] < 0 marks a pruned node.
  for (std::size_t i = n; i-- > 1;) {
    const bool kept = sinks_at(i) > 0 || live_children_[i] > 0 ||
                      (keep && keep(order_[i]));
    if (!kept) {
      live_children_[i] = -1;
      --live_children_[static_cast<std::size_t>(parent_[i])];
    }
  }

  route::RouteTree pruned(source_);
  remap_.assign(n, route::kNoNode);
  remap_[0] = pruned.root();
  for (std::size_t i = 1; i < n; ++i) {
    if (live_children_[i] < 0) continue;
    const route::NodeId p = remap_[static_cast<std::size_t>(parent_[i])];
    RABID_ASSERT(p != route::kNoNode);
    remap_[i] = pruned.add_child(p, order_[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int32_t s = sinks_at(i); s > 0; --s) pruned.add_sink(remap_[i]);
  }
  return pruned;
}

}  // namespace rabid::core
