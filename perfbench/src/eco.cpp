// eco_chain: ECO re-planning on playout.  Set-up batch-plans the circuit
// (the "adopted plan"); the timed loop then runs chain segments of
// seeded 5% pin-move ECOs (eco::random_move_perturbation) through
// eco::IncrementalPlanner::replan, each segment restarting from a copy
// of the adopted plan so every run sees the same starting solution.
//
// One plan = one replan.  Perturbations are generated and every replan
// is audited outside the timed region.  Segment 0 always uses the same
// seeds, whatever --seed says; its final solution is the fixed set the
// quality metrics are taken over.  The traced run alternates untraced
// and traced segments, each pair on the same seeds.

#include <optional>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "common.hpp"
#include "core/allocator.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "eco/incremental.hpp"

namespace perfbench {
namespace {

constexpr const char* kCircuit = "playout";
constexpr double kMoveFraction = 0.05;
constexpr int kSegmentReplans = 10;
constexpr std::uint64_t kQualitySeed = 0x51A7EC0;

struct Adopted {
  rabid::netlist::Design design;
  rabid::tile::TileGraph graph;
  std::vector<rabid::core::NetState> nets;
};

Adopted set_up(Spans& spans, std::vector<double>* setup_s, Outcome& out) {
  const rabid::circuits::CircuitSpec& spec =
      *rabid::circuits::find_spec(kCircuit);
  std::optional<Adopted> adopted;
  for (int rep = 0; more_setup(*setup_s); ++rep) {
    const std::int64_t plan = -1 - rep;
    const auto t0 = Clock::now();
    rabid::netlist::Design design;
    {
      const Spans::Scope s(spans, "circuits.generate_design",
                           Spans::kNoParent, plan);
      design = rabid::circuits::generate_design(spec);
    }
    std::optional<rabid::tile::TileGraph> graph;
    {
      const Spans::Scope s(spans, "tile.build_graph", Spans::kNoParent, plan);
      graph.emplace(rabid::circuits::build_tile_graph(design, spec));
    }
    rabid::core::RabidOptions options;
    options.threads = 1;
    rabid::core::Rabid rabid(design, *graph, options);
    {
      const Spans::Scope s(spans, "core.batch_plan", Spans::kNoParent, plan);
      rabid.run_all();
    }
    std::vector<rabid::core::NetState> nets = rabid.nets();
    setup_s->push_back(seconds_since(t0));
    if (!rabid.audit().clean()) {
      out.invariant("the adopted playout plan does not audit clean");
    }
    adopted.reset();
    adopted.emplace(Adopted{std::move(design), std::move(*graph),
                            std::move(nets)});
  }
  return std::move(*adopted);
}

struct SegmentTotals {
  double ms = 0.0;
  std::int64_t replans = 0;
  double dirty = 0.0, moved = 0.0, iterations = 0.0;
  std::vector<EndToEnd::Block> blocks;  ///< one per segment
};

/// Runs one chain segment from the adopted plan; returns the final
/// solution's stats row.
rabid::core::StageStats run_segment(const Adopted& adopted,
                                    std::uint64_t seed, std::int64_t* plan,
                                    Spans& spans, SegmentTotals& totals,
                                    Outcome& out) {
  rabid::tile::TileGraph graph = adopted.graph;
  rabid::eco::IncrementalPlanner planner(adopted.design, graph,
                                         adopted.nets);
  EndToEnd::Block& block = totals.blocks.emplace_back();
  for (int i = 0; i < kSegmentReplans; ++i, ++*plan) {
    const rabid::eco::Perturbation p = rabid::eco::random_move_perturbation(
        planner, kMoveFraction, mix_seed(seed, static_cast<std::uint64_t>(i)));
    out.attempt();
    rabid::eco::ReplanStats stats;
    rabid::core::Status status;
    const auto t0 = Clock::now();
    {
      const Spans::Scope s(spans, "eco.replan", Spans::kNoParent, *plan);
      status = planner.replan(p, &stats);
    }
    const double ms = ms_since(t0);
    totals.ms += ms;
    ++totals.replans;
    block.plans += 1.0;
    block.seconds += ms / 1000.0;
    block.latencies_ms.push_back(ms);
    totals.dirty += static_cast<double>(stats.dirty_nets);
    totals.moved += static_cast<double>(p.moved_nets.size());
    totals.iterations += static_cast<double>(stats.iterations);
    if (!status) {
      out.fail("eco replan " + std::to_string(*plan) + ": " +
               status.to_string());
      continue;
    }
    rabid::core::AuditReport audit;
    {
      const Spans::Scope s(spans, "core.audit", Spans::kNoParent, *plan);
      audit = planner.audit();
    }
    if (!audit.clean()) {
      out.fail("eco replan " + std::to_string(*plan) + ": audit found " +
               std::to_string(audit.error_count()) + " error(s)");
    }
  }
  return rabid::core::solution_snapshot(graph, planner.nets(), "eco", 0.0, 1);
}

}  // namespace

void run_eco_chain(const Args& args, Outcome& out) {
  using rabid::obs::Level;
  rabid::obs::Registry& registry = rabid::obs::Registry::instance();
  Spans spans(args.trace);
  EndToEnd e2e;
  e2e.tail_q = 0.98;
  const Adopted adopted = set_up(spans, &e2e.setup_s, out);
  if (!args.trace) require_obs_off(out, "before the timed loop");

  SegmentTotals untraced, traced;
  std::int64_t plan = 0;
  rabid::core::StageStats quality_row;
  const auto start = Clock::now();
  for (int segment = 0;; ++segment) {
    const bool is_traced = args.trace && segment % 2 == 1;
    if (segment > 0 && !is_traced &&
        (args.smoke || !more_work(start, segment, args.seconds))) {
      break;
    }
    const int chain = args.trace ? segment / 2 : segment;
    const std::uint64_t seed =
        chain == 0 ? kQualitySeed
                   : mix_seed(args.seed, static_cast<std::uint64_t>(chain));
    registry.set_level(is_traced ? Level::kCounters : Level::kOff);
    if (is_traced && traced.replans == 0) registry.reset();
    const rabid::core::StageStats row =
        run_segment(adopted, seed, &plan, spans,
                    is_traced ? traced : untraced, out);
    if (segment == 0) quality_row = row;
  }
  registry.set_level(Level::kOff);

  if (!args.trace) {
    require_obs_off(out, "after the timed loop");
    e2e.blocks = std::move(untraced.blocks);
    e2e.quality.add(quality_row);
    emit_end_to_end(out, e2e);
    return;
  }

  const rabid::obs::Snapshot counts = registry.snapshot();
  const double n = static_cast<double>(traced.replans);
  LayerTimes t;
  const double reps = static_cast<double>(e2e.setup_s.size());
  t.generate_ms = spans.total_ms("circuits.generate_design") / reps;
  t.build_graph_ms = spans.total_ms("tile.build_graph") / reps;
  t.audit_ms = spans.total_ms("core.audit") /
               static_cast<double>(spans.count("core.audit"));
  t.replan_ms = traced.ms / n;
  t.dirty_per_replan = traced.dirty / n;
  t.amplification = traced.moved > 0 ? traced.dirty / traced.moved : 0.0;
  t.closure_iterations = traced.iterations / n;
  const double untraced_pps = untraced.replans / (untraced.ms / 1000.0);
  const double traced_pps = n / (traced.ms / 1000.0);
  t.overhead_pct = (untraced_pps - traced_pps) / untraced_pps * 100.0;
  t.overflow_edges = static_cast<double>(quality_row.overflow);
  emit_layer_metrics(out, t, counts, n);
  if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
    out.invariant("cannot write the trace to " + args.trace_out);
  }
}

}  // namespace perfbench
