// Regenerates Table II: stage-by-stage RABID results for the six CBL
// circuits, plus final (stage 1-4 cumulative) rows for the four random
// circuits — max/avg wire congestion, overflows, max/avg buffer density,
// buffer count, length-rule failures, wirelength, max/avg sink delay,
// and CPU seconds.
//
// Usage: table2_stages [--quick] [--threads N]
//   --quick      runs apte + hp only
//   --threads N  RabidOptions::threads (0 = one per hardware thread).
//                These runs use no stage-2 shards, so every stage is
//                serial and the thr column reads 1 at any N

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "report/table.hpp"

namespace {

void add_stats_row(rabid::report::Table& table, const std::string& circuit,
                   const rabid::core::StageStats& s) {
  using rabid::report::fmt;
  table.add_row({circuit, s.stage, fmt(s.max_wire_congestion, 2),
                 fmt(s.avg_wire_congestion, 2), fmt(s.overflow),
                 fmt(s.max_buffer_density, 2), fmt(s.avg_buffer_density, 2),
                 fmt(s.buffers), fmt(static_cast<std::int64_t>(s.failed_nets)),
                 fmt(s.wirelength_mm, 0), fmt(s.max_delay_ps, 0),
                 fmt(s.avg_delay_ps, 0), fmt(s.cpu_s, 1),
                 fmt(static_cast<std::int64_t>(s.threads))});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rabid;
  bool quick = false;
  std::int32_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: table2_stages [--quick] [--threads N]\n");
      return 2;
    }
  }

  std::printf(
      "Table II: stage-by-stage results (CBL circuits: one row per stage;\n"
      "random circuits: cumulative stages 1-4), cf. Alpert et al., "
      "Table II\n\n");

  report::Table table({"circuit", "stage", "wireC max", "wireC avg",
                       "overflows", "bufD max", "bufD avg", "#bufs", "#fails",
                       "wl (mm)", "delay max", "delay avg", "wall (s)",
                       "thr"});

  for (const circuits::CircuitSpec& spec : circuits::table1_specs()) {
    if (quick && spec.name != "apte" && spec.name != "hp") continue;
    const netlist::Design design = circuits::generate_design(spec);
    tile::TileGraph graph = circuits::build_tile_graph(design, spec);
    core::RabidOptions options;
    options.threads = threads;
    core::Rabid rabid(design, graph, options);
    const std::vector<core::StageStats> stats = rabid.run_all();

    if (spec.cbl) {
      for (const core::StageStats& s : stats) {
        add_stats_row(table, std::string(spec.name), s);
      }
    } else {
      // The paper reports only the cumulative 1-4 row for random circuits.
      core::StageStats final = stats.back();
      final.stage = "1-4";
      final.cpu_s = 0.0;
      for (const core::StageStats& s : stats) final.cpu_s += s.cpu_s;
      add_stats_row(table, std::string(spec.name), final);
    }
    table.add_rule();
  }
  table.print();

  std::printf(
      "\nexpected shape (paper): stage-1 overflows >> 0 and max wire\n"
      "congestion 2-3x; stage 2 reaches zero overflow; stage 3 adds\n"
      "buffers and collapses delay; stage 4 trims buffers/fails/wl.\n");
  return 0;
}
