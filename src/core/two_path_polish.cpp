#include "core/two_path_polish.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "core/buffer_commit.hpp"

namespace rabid::core {

TwoPathPolish::TwoPathPolish(tile::TileGraph& graph,
                             route::EdgeCostCache& wire_cost,
                             const buffer::BufferLibrary& library,
                             double wire_weight, double buffer_weight)
    : graph_(graph),
      wire_cost_(wire_cost),
      library_(library),
      wire_weight_(wire_weight),
      buffer_weight_(buffer_weight),
      search_(graph),
      editor_(graph),
      site_cost_(static_cast<std::size_t>(graph.tile_count())) {
  for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
    site_cost_[static_cast<std::size_t>(t)] = graph.buffer_cost(t, 0.0);
  }
}

void TwoPathPolish::refresh_site_costs(const route::RouteTree& tree) {
  for (const route::RouteNode& n : tree.nodes()) {
    site_cost_[static_cast<std::size_t>(n.tile)] =
        graph_.buffer_cost(n.tile, 0.0);
  }
}

void TwoPathPolish::polish(NetState& state, std::int32_t L,
                           std::int32_t width) {
  // Rip out the net's buffers and wires from the books.
  release_buffers(graph_, state);
  refresh_site_costs(state.tree);
  state.tree.uncommit(graph_, width);
  wire_cost_.refresh_tree(state.tree);

  // True when committing the net over `tiles` would push an edge past
  // its capacity (the net's own wires are out of the books).
  const auto overflows = [&](std::span<const tile::TileId> tiles) {
    for (std::size_t k = 1; k < tiles.size(); ++k) {
      const tile::EdgeId e = graph_.edge_between(tiles[k - 1], tiles[k]);
      if (graph_.wire_usage(e) + width > graph_.wire_capacity(e)) return true;
    }
    return false;
  };

  editor_.reset(state.tree);
  route::RouteTree current = editor_.rebuild();
  std::vector<std::pair<tile::TileId, tile::TileId>> processed;
  const std::size_t max_rips = 3 * current.two_paths().size() + 4;
  for (std::size_t rip = 0; rip < max_rips; ++rip) {
    const auto paths = current.two_paths();
    const route::RouteTree::TwoPath* next = nullptr;
    std::pair<tile::TileId, tile::TileId> key{tile::kNoTile, tile::kNoTile};
    for (const auto& tp : paths) {
      key = {current.node(tp.head).tile, current.node(tp.tail).tile};
      if (std::find(processed.begin(), processed.end(), key) ==
          processed.end()) {
        next = &tp;
        break;
      }
    }
    if (next == nullptr) break;
    processed.push_back(key);
    // The ripped two-path, head to tail.
    std::vector<tile::TileId> ripped;
    ripped.reserve(next->interior.size() + 2);
    ripped.push_back(key.first);
    for (const route::NodeId n : next->interior) {
      ripped.push_back(current.node(n).tile);
    }
    ripped.push_back(key.second);
    editor_.remove_path(key.first,
                        std::span(ripped).subspan(1, ripped.size() - 2),
                        key.second);
    const TwoPathRoute reroute = search_.route(
        key.second, key.first, L, wire_cost_.values(), site_cost_,
        wire_weight_, buffer_weight_, wire_cost_.min_cost());
    editor_.add_path(overflows(reroute.tiles) ? ripped : reroute.tiles);
    current = editor_.rebuild();
  }
  state.tree = std::move(current);
  state.tree.commit(graph_, width);
  wire_cost_.refresh_tree(state.tree);

  // Re-insert buffers net-wide, exactly as in Stage 3 at p(v) = 0.
  commit_net_buffers(graph_, state.tree, L, library_, {}, BufferDp::kRelaxed,
                     state);
  refresh_site_costs(state.tree);
}

}  // namespace rabid::core
