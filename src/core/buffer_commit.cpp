#include "core/buffer_commit.hpp"

#include <algorithm>

#include "buffer/insertion.hpp"
#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {

/// DP attempts per net before the loop gives up.  Each failed attempt
/// forbids at least one more of the tree's tiles, so the cap is only
/// reached on trees with dozens of oversubscribed tiles.
constexpr int kMaxCommitAttempts = 64;

}  // namespace

std::vector<std::pair<tile::TileId, std::int32_t>> buffers_per_tile(
    const route::RouteTree& tree, const route::BufferList& buffers) {
  std::vector<std::pair<tile::TileId, std::int32_t>> per_tile;
  for (const route::BufferPlacement& b : buffers) {
    const tile::TileId t = tree.node(b.node).tile;
    auto it = std::find_if(per_tile.begin(), per_tile.end(),
                           [&](const auto& p) { return p.first == t; });
    if (it == per_tile.end()) {
      per_tile.emplace_back(t, 1);
    } else {
      ++it->second;
    }
  }
  return per_tile;
}

bool try_commit_buffers(tile::TileGraph& graph, const route::RouteTree& tree,
                        const route::BufferList& buffers,
                        std::vector<tile::TileId>& forbidden) {
  const auto per_tile = buffers_per_tile(tree, buffers);
  bool fits = true;
  for (const auto& [t, count] : per_tile) {
    if (count > graph.site_supply(t) - graph.site_usage(t)) {
      forbidden.push_back(t);
      fits = false;
    }
  }
  if (!fits) return false;
  for (const auto& [t, count] : per_tile) {
    for (std::int32_t k = 0; k < count; ++k) graph.add_buffer(t);
  }
  obs::count(obs::Counter::kBuffersCommitted,
             static_cast<std::uint64_t>(buffers.size()));
  return true;
}

void release_buffers(tile::TileGraph& graph, NetState& state) {
  obs::count(obs::Counter::kBuffersRemoved,
             static_cast<std::uint64_t>(state.buffers.size()));
  for (const route::BufferPlacement& b : state.buffers) {
    graph.remove_buffer(state.tree.node(b.node).tile);
  }
  state.buffers.clear();
  state.buffer_types.clear();
}

bool commit_net_buffers(tile::TileGraph& graph, const route::RouteTree& tree,
                        std::int32_t L, const buffer::BufferLibrary& library,
                        std::span<const double> demand, BufferDp dp,
                        NetState& state) {
  std::vector<tile::TileId> forbidden;
  const auto q = [&](tile::TileId t) {
    if (std::find(forbidden.begin(), forbidden.end(), t) != forbidden.end()) {
      return tile::kInfCost;
    }
    return graph.buffer_cost(
        t, demand.empty() ? 0.0 : demand[static_cast<std::size_t>(t)]);
  };
  for (int attempt = 0; attempt < kMaxCommitAttempts; ++attempt) {
    if (attempt > 0) obs::count(obs::Counter::kBufferCommitRetries);
    buffer::InsertionResult result =
        dp == BufferDp::kRelaxed
            ? buffer::insert_buffers_planned_relaxed(tree, L, q, library)
            : buffer::insert_buffers_planned(tree, L, q, library);
    const bool meets = result.feasible && result.effective_limit <= L;
    if (dp == BufferDp::kStrictOrPark && !meets) return false;
    if (!try_commit_buffers(graph, tree, result.buffers, forbidden)) continue;

    state.buffers = std::move(result.buffers);
    // Unit libraries leave the tags empty (the historical state, and
    // what the bit-identical goldens pin); the multi-type engine's
    // chosen types become electrical cells so delays and dumps see them.
    state.buffer_types.clear();
    for (const std::int32_t t : result.types) {
      state.buffer_types.push_back(
          library.electrical_of(static_cast<std::size_t>(t)));
    }
    state.meets_length_rule = meets;
    return true;
  }
  RABID_ASSERT_MSG(dp == BufferDp::kStrictOrPark,
                   "buffer commit failed to converge");
  return false;
}

}  // namespace rabid::core
