#pragma once

/// \file two_path_polish.hpp
/// Stage 4's per-net body (Section III-D), shared by the batch flow
/// (Rabid::run_stage4) and the ECO planner's polish pass: rip the net's
/// buffers and wires, reconnect one two-path at a time with the
/// (tile x L) search over eq. (1) + eq. (2) costs, commit the tree, and
/// re-buffer it net-wide through the buffer-commit loop.

#include <cstdint>
#include <vector>

#include "buffer/library.hpp"
#include "core/rabid.hpp"
#include "core/twopath.hpp"
#include "route/maze.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::core {

class TwoPathPolish {
 public:
  /// Borrows the graph, the caller's wire-cost cache (its min_cost() is
  /// the A* floor) and the planning library.  q(v) is read from the
  /// books here at p(v) = 0 and kept current by every polish().  The
  /// objective is wire_weight * eq. (1) + buffer_weight * eq. (2)
  /// (footnote 7).
  TwoPathPolish(tile::TileGraph& graph, route::EdgeCostCache& wire_cost,
                const buffer::BufferLibrary& library, double wire_weight,
                double buffer_weight);

  /// Polishes one routed net whose wires and buffers are in the books;
  /// its new tree, buffers and length-rule flag end up committed (the
  /// delay is the caller's to refresh).  The two-path decomposition is
  /// recomputed after every replacement: a reroute may share arcs with a
  /// not-yet-processed two-path, which a stale snapshot would sever.  A
  /// reconnection that would overflow an edge is dropped and the ripped
  /// two-path put back: the search prices a full edge at the finite
  /// route::kOverflowPenalty, so it wins when no free path is L-feasible.
  void polish(NetState& state, std::int32_t L, std::int32_t width);

  /// Bytes held by the (tile x L) search scratch and the tree editor.
  std::uint64_t memory_bytes() const {
    return search_.memory_bytes() + editor_.memory_bytes();
  }

 private:
  /// Re-reads q(v) on every tile of `tree`, where its buffers sit.
  void refresh_site_costs(const route::RouteTree& tree);

  tile::TileGraph& graph_;
  route::EdgeCostCache& wire_cost_;
  const buffer::BufferLibrary& library_;
  double wire_weight_;
  double buffer_weight_;
  /// One search for every two-path of every net: its stamped scratch
  /// warms up once, and later searches touch only visited states.
  TwoPathSearch search_;
  /// One editor for every net: reset() per net, O(tree) (twopath.hpp).
  TileTreeEditor editor_;
  std::vector<double> site_cost_;  ///< q(v) at p(v) = 0, per tile
};

}  // namespace rabid::core
