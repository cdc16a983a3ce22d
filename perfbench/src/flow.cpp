// Batch-flow workloads: table1 (the paper's ten circuits, serial) and
// scale10k_sharded (one 10k-net circuit, region-sharded stage 2 on four
// threads).  One plan = a fresh copy of the circuit's tile graph, a
// core::Rabid on it, and the four stages.
//
// Untraced runs time Rabid::run_all with observability off.  The traced
// run alternates an untraced and a traced pass; the traced one raises
// the registry to counters and calls run_stage1..4 one at a time inside
// benchmark spans, so stage self times add up to the flow span.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "common.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"

namespace perfbench {
namespace {

using rabid::core::StageStats;

struct FlowConfig {
  const char* workload;
  std::vector<std::string> circuits;
  std::int32_t threads = 1;
  std::int32_t shards = 0;
  /// README.md: the highest percentile with at least ten plans beyond
  /// it at the run length BENCHMARK.json sets.
  double tail_q = 0.9;
};

/// Published Table-II goldens the unit-library flow must reproduce.
struct Golden {
  const char* circuit;
  std::int64_t buffers;
  std::int32_t fails;
};
constexpr Golden kGoldens[] = {{"apte", 483, 6}, {"hp", 467, 7}};

struct Circuit {
  const rabid::circuits::CircuitSpec* spec = nullptr;
  rabid::netlist::Design design;
  rabid::tile::TileGraph graph;
};

/// Generates every circuit and its tile graph, repeated per more_setup()
/// (the last set is kept); records each repetition's wall time.
std::vector<Circuit> set_up(const FlowConfig& cfg, Spans& spans,
                            std::vector<double>* setup_s) {
  std::vector<Circuit> circuits;
  for (int rep = 0; more_setup(*setup_s); ++rep) {
    circuits.clear();
    const auto t0 = Clock::now();
    const Spans::Scope setup(spans, "bench.setup", Spans::kNoParent, -1 - rep);
    for (const std::string& name : cfg.circuits) {
      const rabid::circuits::CircuitSpec* spec =
          rabid::circuits::find_spec(name);
      rabid::netlist::Design design;
      {
        const Spans::Scope s(spans, "circuits.generate_design",
                             setup.handle(), -1 - rep);
        design = rabid::circuits::generate_design(*spec);
      }
      const Spans::Scope s(spans, "tile.build_graph", setup.handle(),
                           -1 - rep);
      rabid::tile::TileGraph graph =
          rabid::circuits::build_tile_graph(design, *spec);
      circuits.push_back({spec, std::move(design), std::move(graph)});
    }
    setup_s->push_back(seconds_since(t0));
  }
  return circuits;
}

/// Checks one finished plan; returns its final-stage row.
StageStats check_plan(const FlowConfig& cfg, const Circuit& c,
                      const rabid::core::Rabid& rabid,
                      std::vector<StageStats>& first, std::size_t index,
                      Spans& spans, std::int64_t plan, Outcome& out) {
  const std::string name(c.spec->name);
  const StageStats row = rabid.stage_history().back();
  rabid::core::AuditReport audit;
  {
    const Spans::Scope s(spans, "core.audit", Spans::kNoParent, plan);
    audit = rabid.audit();
  }
  if (rabid.stage_history().size() != 4 || rabid.timed_out()) {
    out.fail(std::string(cfg.workload) + " " + name +
             ": the flow stopped before stage 4");
    return row;
  }
  // A wrong answer is reported once per plan, ahead of an audit error.
  bool wrong = false;
  for (const Golden& g : kGoldens) {
    if (name == g.circuit &&
        (row.buffers != g.buffers || row.failed_nets != g.fails)) {
      out.wrong(name + " misses its golden (" + std::to_string(g.buffers) +
                " buffers / " + std::to_string(g.fails) + " fails): " +
                describe(row));
      wrong = true;
    }
  }
  if (first.size() <= index) {
    first.resize(index + 1);
    first[index] = row;
  } else if (!wrong && !same_solution(row, first[index])) {
    out.wrong(std::string(cfg.workload) + " " + name +
              " differs from its first plan: " + describe(row) + " vs " +
              describe(first[index]));
    wrong = true;
  }
  if (!wrong && !audit.clean()) {
    std::string detail;
    for (const auto& v : audit.violations) {
      if (v.severity != rabid::core::AuditSeverity::kError) continue;
      char where[96];
      std::snprintf(where, sizeof(where),
                    "net %d tile %d edge %d: expected %g, actual %g",
                    static_cast<int>(v.net), static_cast<int>(v.tile),
                    static_cast<int>(v.edge), v.expected, v.actual);
      detail = " (first: " + v.detail + " at " + where + ")";
      break;
    }
    out.fail(std::string(cfg.workload) + " " + name + ": audit found " +
             std::to_string(audit.error_count()) +
             " error(s) after stage 4" + detail);
  }
  return row;
}

/// Output of one plan (untraced or traced).
struct PlanResult {
  double ms = 0.0;
  StageStats row;
};

PlanResult run_plan(const FlowConfig& cfg, const Circuit& c, bool traced,
                    std::vector<StageStats>& first, std::size_t index,
                    Spans& spans, std::int64_t plan, Outcome& out) {
  rabid::core::RabidOptions options;
  options.threads = cfg.threads;
  options.stage2_shards = cfg.shards;
  if (traced) options.obs_level = rabid::obs::Level::kCounters;
  out.attempt();

  PlanResult result;
  const auto t0 = Clock::now();
  rabid::tile::TileGraph graph = c.graph;
  rabid::core::Rabid rabid(c.design, graph, options);
  if (!traced) {
    rabid.run_all();
    result.ms = ms_since(t0);
  } else {
    const Spans::Scope flow(spans, "core.flow", Spans::kNoParent, plan);
    {
      const Spans::Scope s(spans, "route.stage1", flow.handle(), plan);
      rabid.run_stage1();
    }
    {
      const Spans::Scope s(spans, "route.stage2", flow.handle(), plan);
      rabid.run_stage2();
    }
    {
      const Spans::Scope s(spans, "buffer.stage3", flow.handle(), plan);
      rabid.run_stage3();
    }
    {
      const Spans::Scope s(spans, "core.stage4", flow.handle(), plan);
      rabid.run_stage4();
    }
    result.ms = ms_since(t0);
  }
  result.row = check_plan(cfg, c, rabid, first, index, spans, plan, out);
  return result;
}

void run_flow(const FlowConfig& cfg, const Args& args, Outcome& out) {
  using rabid::obs::Level;
  rabid::obs::Registry& registry = rabid::obs::Registry::instance();
  Spans spans(args.trace);
  EndToEnd e2e;
  e2e.tail_q = cfg.tail_q;

  std::vector<Circuit> circuits = set_up(cfg, spans, &e2e.setup_s);
  std::vector<StageStats> first;  // per-circuit reference rows
  if (!args.trace) require_obs_off(out, "before the timed loop");

  // Whole passes over the circuit list while they fit the run length,
  // so every run weighs the circuits alike.  The traced run alternates
  // an untraced and a traced pass.
  double untraced_ms = 0.0, traced_ms = 0.0;
  std::int64_t untraced_plans = 0, traced_plans = 0, plan = 0;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    if (pass > 0 && !traced &&
        (args.smoke || !more_work(start, pass, args.seconds))) {
      break;
    }
    EndToEnd::Block block;
    registry.set_level(traced ? Level::kCounters : Level::kOff);
    if (traced && traced_plans == 0) registry.reset();
    for (std::size_t i = 0; i < circuits.size(); ++i, ++plan) {
      const PlanResult r =
          run_plan(cfg, circuits[i], traced, first, i, spans, plan, out);
      if (traced) {
        traced_ms += r.ms;
        ++traced_plans;
      } else {
        untraced_ms += r.ms;
        ++untraced_plans;
        block.plans += 1.0;
        block.seconds += r.ms / 1000.0;
        block.latencies_ms.push_back(r.ms);
      }
      if (pass == 0) e2e.quality.add(r.row);
    }
    if (!traced) e2e.blocks.push_back(std::move(block));
  }
  registry.set_level(Level::kOff);

  if (!args.trace) {
    require_obs_off(out, "after the timed loop");
    emit_end_to_end(out, e2e);
    return;
  }

  const rabid::obs::Snapshot counts = registry.snapshot();
  const double n = static_cast<double>(traced_plans);
  LayerTimes t;
  const double reps = static_cast<double>(e2e.setup_s.size());
  t.generate_ms = spans.total_ms("circuits.generate_design") / reps;
  t.build_graph_ms = spans.total_ms("tile.build_graph") / reps;
  t.stage1_ms = spans.self_ms("route.stage1") / n;
  t.stage2_ms = spans.self_ms("route.stage2") / n;
  t.stage3_ms = spans.self_ms("buffer.stage3") / n;
  t.stage4_ms = spans.self_ms("core.stage4") / n;
  t.flow_self_ms = spans.self_ms("core.flow") / n;
  t.audit_ms = spans.total_ms("core.audit") /
               static_cast<double>(spans.count("core.audit"));
  const double untraced_pps = untraced_plans / (untraced_ms / 1000.0);
  const double traced_pps = n / (traced_ms / 1000.0);
  t.overhead_pct = (untraced_pps - traced_pps) / untraced_pps * 100.0;
  t.coverage_pct =
      100.0 * spans.min_child_coverage(
                  "core.flow", {"route.stage1", "route.stage2",
                                "buffer.stage3", "core.stage4"});
  for (const StageStats& row : first) {
    t.overflow_edges += static_cast<double>(row.overflow);
  }
  if (t.coverage_pct < 95.0) {
    out.invariant("stage spans cover only " + std::to_string(t.coverage_pct) +
                  "% of a flow span (needs >= 95%)");
  }
  emit_layer_metrics(out, t, counts, n);
  if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
    out.invariant("cannot write the trace to " + args.trace_out);
  }
}

}  // namespace

void run_table1(const Args& args, Outcome& out) {
  FlowConfig cfg;
  cfg.workload = "table1";
  for (const auto& spec : rabid::circuits::table1_specs()) {
    cfg.circuits.emplace_back(spec.name);
  }
  cfg.threads = 1;
  cfg.shards = 0;
  cfg.tail_q = 0.85;
  run_flow(cfg, args, out);
}

void run_scale10k_sharded(const Args& args, Outcome& out) {
  FlowConfig cfg;
  cfg.workload = "scale10k_sharded";
  cfg.circuits = {"scale10k"};
  cfg.threads = 4;
  cfg.shards = 4;
  // Four or five flows fit a run: the tail is the slowest one.
  cfg.tail_q = 1.0;
  run_flow(cfg, args, out);
}

}  // namespace perfbench
