#pragma once

/// \file twopath.hpp
/// Stage-4 machinery (Section III-D): editing a route tree one two-path
/// at a time, and the bottom-up cost-array path search that reconnects a
/// ripped-up two-path while minimizing wire congestion (eq. 1) plus
/// buffer-site cost (eq. 2) jointly.
///
/// The search runs Dijkstra over (tile, j) states, j being the wire
/// length since the last buffer (j < L).  Stepping an edge costs eq. (1)
/// and increments j; placing a buffer at a tile costs q(v) and resets
/// j to 0.  States whose j would reach L must buffer or die, so every
/// returned path can be legally buffered under the length rule.  The
/// buffers themselves are re-inserted net-wide afterwards (the paper does
/// the same); the search only has to find a corridor where both wire and
/// buffer capacity exist.

#include <array>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "buffer/insertion.hpp"
#include "route/maze.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "util/radix_heap.hpp"

namespace rabid::core {

/// Result of the (tile x L) Dijkstra: the tile path (from..to inclusive)
/// and its combined congestion cost.
struct TwoPathRoute {
  std::vector<tile::TileId> tiles;
  double cost = 0.0;
};

/// Finds the min-cost reconnection between two tiles.
/// `wire_cost`: per-edge cost (eq. 1, softened); `buffer_cost`: per-tile
/// q(v) (may be +inf); `L`: length rule for the net.  The objective is
/// wire_weight * wire + buffer_weight * buffer — footnote 7: the two
/// costs "are of the same order of magnitude, so we simply add their
/// costs. Alternatively, one could use any linear combination."
///
/// The span overload is the hot path: flat per-edge / per-tile cost
/// arrays (one load per relaxation), plus optional A* targeting.
/// `astar_floor > 0` (any positive value — pass e.g.
/// EdgeCostCache::min_cost()) enables the goal-rooted exact-wire-
/// distance heuristic described on TwoPathSearch; the returned cost is
/// provably identical either way.  0 disables the heuristic and
/// reproduces plain Dijkstra expansion order exactly.
TwoPathRoute route_two_path(const tile::TileGraph& g, tile::TileId from,
                            tile::TileId to, std::int32_t L,
                            std::span<const double> wire_cost,
                            std::span<const double> buffer_cost,
                            double wire_weight = 1.0,
                            double buffer_weight = 1.0,
                            double astar_floor = 0.0);

/// Callback convenience wrapper: materializes flat cost arrays once and
/// runs the span overload (identical results; used by tests and one-off
/// callers where the per-call O(V + E) evaluation is irrelevant).
TwoPathRoute route_two_path(const tile::TileGraph& g, tile::TileId from,
                            tile::TileId to, std::int32_t L,
                            const route::EdgeCostFn& wire_cost,
                            const buffer::TileCostFn& buffer_cost,
                            double wire_weight = 1.0,
                            double buffer_weight = 1.0);

/// Reusable (tile x L) search: all scratch — per-state distance/parent
/// labels, the heap's backing store, the heuristic field — lives in
/// stamped member arrays sized to the largest L seen, so a warm search
/// touches only the states the wavefront actually visits.  Stage 4 keeps
/// one TwoPathSearch alive across every two-path of every net.
///
/// With `astar_floor > 0` the search upgrades the Manhattan bound to the
/// *exact* wire-only distance-to-goal: a goal-rooted tile-level Dijkstra
/// over `wire_cost` (no length rule, no buffers) settled lazily, exactly
/// as far as the forward wavefront asks.  h(t) = wire_weight * that
/// distance is admissible (buffer costs are nonnegative and every legal
/// continuation is in particular a wire path) and consistent (a shortest
/// -path field obeys the triangle inequality edge by edge; buffering
/// keeps the tile, leaving h unchanged), so the returned cost is
/// identical to plain Dijkstra's — only equal-cost tie-breaking differs.
/// Results are identical to route_two_path() given the same arguments.
///
/// Same-tile j-dominance: a label (t, j) at cost d is dropped — not
/// pushed, or not expanded once popped — when a label (t, j' < j) of the
/// same search already costs <= d.  Any extension of the dominated label
/// is feasible from the dominating one at no more cost: a step or a run
/// of steps needs j + k < L, which j' satisfies whenever j does; a buffer
/// resets both to 0.  Ties cannot flip either: the dominating label's
/// copy of every extension reaches each state with a key no greater
/// (IEEE addition is monotone) and a smaller packed id, so it is popped
/// first and wins each merge and the goal.  Routes, costs and tie-breaks
/// are therefore those of the unpruned search; the pruning removes only
/// work.  twopath_oracle_test checks this against unpruned Dijkstra.
class TwoPathSearch {
 public:
  explicit TwoPathSearch(const tile::TileGraph& g);

  TwoPathRoute route(tile::TileId from, tile::TileId to, std::int32_t L,
                     std::span<const double> wire_cost,
                     std::span<const double> buffer_cost,
                     double wire_weight = 1.0, double buffer_weight = 1.0,
                     double astar_floor = 0.0);

  /// The heuristic field after the last route() with astar_floor > 0:
  /// the settled wire distance t -> goal, or NaN where the field did not
  /// settle `t` (twopath_oracle_test pins it to the float fixpoint).
  double field_value(tile::TileId t) const {
    const FieldLabel& fl = field_[static_cast<std::size_t>(t)];
    return fl.settled == epoch_ ? fl.dist
                                : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  struct Entry {
    double key;  ///< d + heuristic; == d when A* is off
    double d;
    std::uint64_t s;
    bool operator>(const Entry& o) const {
      if (key != o.key) return key > o.key;
      return s > o.s;
    }
  };
  /// Not a strict order: two entries of one tile can tie on (key, t)
  /// with d an ulp apart.  field_settle expands from the tile's label,
  /// so which of them pops first cannot change the field.
  struct FieldEntry {
    double key;  ///< d + field A* bound; == d when the bound is off
    double d;
    tile::TileId t;
    bool operator>(const FieldEntry& o) const {
      if (key != o.key) return key > o.key;
      return t > o.t;
    }
  };

  /// Forward-search label, one 16-byte row per (tile, j) state so a
  /// relaxation touches a single cache line instead of three parallel
  /// arrays.  `prev` holds the predecessor *state* (-1 for the start,
  /// -2 for never-touched); 31 bits bound the state space at 2^31 rows,
  /// asserted in ensure_states.
  struct Label {
    double dist;
    std::int32_t prev;
    std::uint32_t stamp;
  };
  static_assert(sizeof(Label) == 16);

  /// Heuristic-field label, one 16-byte row per tile (same rationale).
  struct FieldLabel {
    double dist;
    std::uint32_t seen;
    std::uint32_t settled;
  };
  static_assert(sizeof(FieldLabel) == 16);

 public:
  /// Bytes held by the (tile x L) labels, the heuristic field, and both
  /// radix heaps (pool, bucket links, bottom heap) — the obs
  /// memory.maze_scratch accounting.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(labels_.capacity()) * sizeof(Label) +
           static_cast<std::uint64_t>(field_.capacity()) *
               sizeof(FieldLabel) +
           static_cast<std::uint64_t>(coords_.capacity()) *
               sizeof(geom::TileCoord) +
           heap_.memory_bytes() +
           field_heap_.memory_bytes();
  }

 private:
  void ensure_states(std::size_t n_states);
  void heap_push(Entry e) { heap_.push(e); }
  Entry heap_pop() { return heap_.pop(); }
  /// Settles the goal-rooted wire-distance field up to `t` (lazy
  /// backward Dijkstra); returns the unweighted wire distance t -> goal.
  /// Called once per relaxation, so the settled case — by far the most
  /// common once the field has spread — must be a single stamped load.
  double field_distance(tile::TileId t, std::span<const double> wire_cost) {
    const FieldLabel& fl = field_[static_cast<std::size_t>(t)];
    if (fl.settled == epoch_) return fl.dist;
    return field_settle(t, wire_cost);
  }
  /// Out-of-line slow path of field_distance: pops the backward-Dijkstra
  /// heap until `t` is settled.
  double field_settle(tile::TileId t, std::span<const double> wire_cost);

  const tile::TileGraph& g_;
  std::vector<Label> labels_;
  std::uint32_t epoch_ = 0;
  util::RadixHeap<Entry> heap_;

  // Heuristic field scratch (per goal tile, stamped by epoch_).  The
  // field is itself an A* search aimed at the forward search's source:
  // with a consistent bound every settled tile's distance is exact (the
  // standard A* optimality argument; a 2^-20 slack in the bound keeps
  // it exact under float rounding, see route()), so the *values* the
  // forward search reads — and therefore its keys, pops, and routes —
  // are identical to a plain-Dijkstra field; only which tiles get
  // settled (a corridor goal -> source instead of a disk around the
  // goal) changes.
  std::vector<FieldLabel> field_;
  std::vector<geom::TileCoord> coords_;  ///< per-tile coordinate table
  util::RadixHeap<FieldEntry> field_heap_;
  geom::TileCoord field_hot_{0, 0};  ///< forward source; field A* target
  double field_floor_ = 0.0;         ///< admissible per-step bound (0 = off)
  std::uint64_t field_pops_ = 0;     ///< this search's field heap pops
};

/// An editable tile-level tree: a RouteTree exploded into undirected
/// arcs, supporting two-path removal, path insertion, pruning of dangling
/// stubs, and reconstruction into a RouteTree.
///
/// Reuse contract: one editor serves every net of a pass.  It is sized to
/// the graph once; reset() loads the next net and implicitly forgets the
/// previous one through a per-tile stamp, so loading a net, editing it
/// and each rebuild() cost O(tree), never O(tiles), and rebuild() keeps
/// its BFS/prune scratch across calls.
class TileTreeEditor {
 public:
  explicit TileTreeEditor(const tile::TileGraph& g);

  /// Loads `tree` as the arc set, discarding the previously loaded net.
  void reset(const route::RouteTree& tree);

  /// Removes the arcs of a two-path (interior tiles plus both boundary
  /// arcs). `interior` may be empty (single-arc two-path).
  void remove_path(tile::TileId head,
                   std::span<const tile::TileId> interior, tile::TileId tail);

  /// Adds the arcs of a tile path (consecutive tiles adjacent in g).
  void add_path(std::span<const tile::TileId> tiles);

  /// True if `t` currently has any arcs (or is the root/a sink).
  bool in_tree(tile::TileId t) const;

  /// Rebuilds a RouteTree: BFS from the source over the arc set (cycle
  /// arcs dropped; each tile's arcs in insertion order), then iterative
  /// pruning of non-sink leaves.  Aborts if any sink became unreachable.
  /// Tiles for which `keep` returns true are never pruned (e.g. stubs
  /// ending at a net's buffer tile).
  route::RouteTree rebuild(const std::function<bool(tile::TileId)>& keep = {});

  /// Bytes held by the per-tile arc table and the rebuild scratch.
  std::uint64_t memory_bytes() const {
    std::uint64_t ids = sink_tiles_.capacity() + order_.capacity();
    ids += parent_.capacity() + live_children_.capacity() + remap_.capacity();
    return tiles_.capacity() * sizeof(TileArcs) + ids * sizeof(std::int32_t);
  }

 private:
  /// Per-tile arc record.  `sinks` and the arcs are live only while
  /// `epoch == epoch_` (the loaded net); `visit == visit_` marks a tile
  /// the current rebuild() reached.  A grid tile has at most four
  /// neighbours, so the arcs fit inline, kept in insertion order:
  /// rebuild()'s BFS visits them in that order, which fixes the child
  /// order of the rebuilt tree.
  struct TileArcs {
    std::uint32_t epoch = 0;
    std::uint32_t visit = 0;
    std::int32_t sinks = 0;
    std::int32_t degree = 0;
    std::array<tile::TileId, 4> nbr{};
  };

  TileArcs& live(tile::TileId t);
  const TileArcs* find(tile::TileId t) const {
    const TileArcs& a = tiles_[static_cast<std::size_t>(t)];
    return a.epoch == epoch_ ? &a : nullptr;
  }
  void remove_arc(tile::TileId a, tile::TileId b);
  void add_arc(tile::TileId a, tile::TileId b);

  const tile::TileGraph& g_;
  std::vector<TileArcs> tiles_;  ///< per tile, stamped by epoch_
  std::uint32_t epoch_ = 0;
  std::uint32_t visit_ = 0;
  tile::TileId source_ = tile::kNoTile;
  std::vector<tile::TileId> sink_tiles_;  ///< tiles carrying sinks
  // rebuild() scratch, indexed by BFS order.
  std::vector<tile::TileId> order_;
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> live_children_;
  std::vector<std::int32_t> remap_;
};

}  // namespace rabid::core
