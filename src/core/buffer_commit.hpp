#pragma once

/// \file buffer_commit.hpp
/// The buffer-commit loop every planner shares (batch stages 3/4, ECO
/// re-buffering, stream admission, the MCF fallback route), and its
/// inverse, the buffer release.
///
/// The length-based DP prices each tile with q(v) computed per net, so a
/// single net can claim more sites in one tile than the tile has left
/// (Section III-C's multiple-buffers-per-tile remark).  The loop tallies
/// the proposal per tile and commits it only when every tile has room;
/// otherwise it forbids the oversubscribed tiles and re-runs the DP.
/// Every re-run counts obs::Counter::kBufferCommitRetries, every commit
/// obs::Counter::kBuffersCommitted.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "buffer/library.hpp"
#include "core/rabid.hpp"
#include "route/buffers.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::core {

/// Buffer count per distinct tile of one placement list, in the order
/// the tiles first appear.
std::vector<std::pair<tile::TileId, std::int32_t>> buffers_per_tile(
    const route::RouteTree& tree, const route::BufferList& buffers);

/// The tally-and-commit half of the loop.  When every tile `buffers`
/// uses has enough free sites, adds them to the books, counts them, and
/// returns true.  Otherwise appends each oversubscribed tile to
/// `forbidden`, leaves the books untouched, and returns false.
bool try_commit_buffers(tile::TileGraph& graph, const route::RouteTree& tree,
                        const route::BufferList& buffers,
                        std::vector<tile::TileId>& forbidden);

/// Returns every site `state` holds to the books (one remove_buffer per
/// placement, counted as obs::Counter::kBuffersRemoved) and clears its
/// buffers and type tags.  The tree and its wires are untouched.
void release_buffers(tile::TileGraph& graph, NetState& state);

/// Which DP variant the loop runs, and what an infeasible result means.
enum class BufferDp {
  /// insert_buffers_planned_relaxed: loosens L until a solution exists,
  /// so the loop always commits (an over-L result is a counted failure).
  kRelaxed,
  /// insert_buffers_planned: an infeasible result commits nothing and
  /// the caller parks the net.
  kStrictOrPark,
};

/// Buffers one routed net and commits the result.  q(v) is
/// graph.buffer_cost(v, p(v)), with p(v) read from `demand` (indexed by
/// tile; empty means p = 0 everywhere).  On success sets `state`'s
/// buffers, electrical type tags (empty for a unit library) and length-
/// rule flag, and returns true; `state.tree` is not read or written, so
/// the tree may live elsewhere until the caller adopts it.  Returns
/// false, with the books and `state` untouched, only for
/// BufferDp::kStrictOrPark.
bool commit_net_buffers(tile::TileGraph& graph, const route::RouteTree& tree,
                        std::int32_t L, const buffer::BufferLibrary& library,
                        std::span<const double> demand, BufferDp dp,
                        NetState& state);

}  // namespace rabid::core
