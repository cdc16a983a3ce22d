#include "fuzz/differential.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/solution_io.hpp"
#include "eco/incremental.hpp"
#include "util/rng.hpp"

namespace rabid::fuzz {

namespace {

/// Region shards for both differential runs.  Stage 2's shards are the
/// only work the thread pool runs, so without them the two runs would
/// take the same serial path at any thread counts.
constexpr std::int32_t kDifferentialShards = 4;

/// Appends one difference record, honoring the entry cap.
class DiffSink {
 public:
  DiffSink(SolutionDiff& diff, std::size_t max_entries)
      : diff_(diff), max_entries_(max_entries) {}

  template <typename A, typename B>
  void mismatch(const std::string& what, const A& expected, const B& actual) {
    ++diff_.total;
    if (diff_.entries.size() >= max_entries_) return;
    std::ostringstream out;
    out << what << ": " << expected << " vs " << actual;
    diff_.entries.push_back(out.str());
  }

  template <typename A, typename B>
  void expect_eq(const std::string& what, const A& expected,
                 const B& actual) {
    if (!(expected == actual)) mismatch(what, expected, actual);
  }

 private:
  SolutionDiff& diff_;
  std::size_t max_entries_;
};

std::string net_tag(const netlist::Design& design, std::size_t i) {
  return "net " + std::to_string(i) + " (" +
         design.net(static_cast<netlist::NetId>(i)).name + ")";
}

}  // namespace

SolutionDiff diff_solutions(const netlist::Design& design,
                            const tile::TileGraph& graph_a,
                            std::span<const core::NetState> a,
                            const tile::TileGraph& graph_b,
                            std::span<const core::NetState> b,
                            std::size_t max_entries) {
  SolutionDiff diff;
  DiffSink sink(diff, max_entries);
  sink.expect_eq("net count", a.size(), b.size());
  const std::size_t nets = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < nets; ++i) {
    const core::NetState& na = a[i];
    const core::NetState& nb = b[i];
    const std::string tag = net_tag(design, i);
    if (na.tree.node_count() != nb.tree.node_count()) {
      sink.mismatch(tag + " node count", na.tree.node_count(),
                    nb.tree.node_count());
      continue;
    }
    for (std::size_t v = 0; v < na.tree.node_count(); ++v) {
      const auto id = static_cast<route::NodeId>(v);
      const route::RouteNode& va = na.tree.node(id);
      const route::RouteNode& vb = nb.tree.node(id);
      const std::string node_tag = tag + " node " + std::to_string(v);
      sink.expect_eq(node_tag + " tile", va.tile, vb.tile);
      sink.expect_eq(node_tag + " parent", va.parent, vb.parent);
      sink.expect_eq(node_tag + " sinks", va.sink_count, vb.sink_count);
    }
    if (na.buffers.size() != nb.buffers.size()) {
      sink.mismatch(tag + " buffer count", na.buffers.size(),
                    nb.buffers.size());
    } else {
      for (std::size_t k = 0; k < na.buffers.size(); ++k) {
        const std::string buf_tag = tag + " buffer " + std::to_string(k);
        sink.expect_eq(buf_tag + " node", na.buffers[k].node,
                       nb.buffers[k].node);
        sink.expect_eq(buf_tag + " child", na.buffers[k].child,
                       nb.buffers[k].child);
      }
    }
    sink.expect_eq(tag + " meets_length_rule", na.meets_length_rule,
                   nb.meets_length_rule);
    // Identical arithmetic on identical inputs: delays match exactly.
    sink.expect_eq(tag + " max delay", na.delay.max_ps, nb.delay.max_ps);
    sink.expect_eq(tag + " delay sum", na.delay.sum_ps, nb.delay.sum_ps);
  }

  sink.expect_eq("edge count", graph_a.edge_count(), graph_b.edge_count());
  sink.expect_eq("tile count", graph_a.tile_count(), graph_b.tile_count());
  if (graph_a.edge_count() == graph_b.edge_count()) {
    for (tile::EdgeId e = 0; e < graph_a.edge_count(); ++e) {
      sink.expect_eq("edge " + std::to_string(e) + " w(e)",
                     graph_a.wire_usage(e), graph_b.wire_usage(e));
    }
  }
  if (graph_a.tile_count() == graph_b.tile_count()) {
    for (tile::TileId t = 0; t < graph_a.tile_count(); ++t) {
      sink.expect_eq("tile " + std::to_string(t) + " b(v)",
                     graph_a.site_usage(t), graph_b.site_usage(t));
    }
  }
  return diff;
}

std::string FuzzResult::describe() const {
  if (ok()) return {};
  std::ostringstream out;
  out << "fuzz seed " << seed << " failed (" << nets << " nets, " << buffers
      << " buffers):";
  if (!diff.identical()) {
    out << "\n  " << diff.total << " solution differences";
    for (const std::string& e : diff.entries) out << "\n    " << e;
  }
  if (!audit_a.clean()) out << "\n  run A " << audit_a.summary();
  if (!audit_b.clean()) out << "\n  run B " << audit_b.summary();
  return out.str();
}

FuzzResult run_differential(std::uint64_t seed,
                            const DifferentialOptions& options) {
  const circuits::RandomCircuit circuit(seed, options.circuit);
  const netlist::Design design = circuit.design();

  const auto run = [&](std::int32_t threads, tile::TileGraph& graph) {
    core::RabidOptions opt;
    opt.threads = threads;
    opt.stage2_shards = kDifferentialShards;
    opt.audit_level = core::AuditLevel::kPerStage;
    auto rabid = std::make_unique<core::Rabid>(design, graph, opt);
    rabid->run_all();
    return rabid;
  };

  tile::TileGraph graph_a = circuit.graph(design);
  const auto a = run(options.threads_a, graph_a);
  tile::TileGraph graph_b = circuit.graph(design);
  const auto b = run(options.threads_b, graph_b);

  FuzzResult result;
  result.seed = seed;
  result.nets = design.nets().size();
  result.buffers = graph_a.stats().buffers_used;
  result.diff =
      diff_solutions(design, graph_a, a->nets(), graph_b, b->nets());
  result.audit_a = *a->last_audit();
  result.audit_b = *b->last_audit();
  return result;
}

std::string RobustnessResult::describe() const {
  if (ok()) return {};
  std::ostringstream out;
  out << "robustness seed " << seed << " failed:";
  for (const std::string& f : failures) out << "\n  " << f;
  return out.str();
}

RobustnessResult run_robustness(std::uint64_t seed,
                                const std::string& scratch_dir,
                                const DifferentialOptions& options) {
  namespace fs = std::filesystem;
  RobustnessResult result;
  result.seed = seed;

  const circuits::RandomCircuit circuit(seed, options.circuit);
  const netlist::Design design = circuit.design();

  core::RabidOptions base;
  base.threads = options.threads_a;
  base.audit_level = core::AuditLevel::kFinal;

  // Reference run, checkpointed after every stage (each stage into its
  // own directory, so every boundary stays resumable).
  const std::string root =
      scratch_dir + "/rob-" + std::to_string(seed);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    result.failures.push_back("cannot create scratch dir " + root + ": " +
                              ec.message());
    return result;
  }

  tile::TileGraph ref_graph = circuit.graph(design);
  core::Rabid reference(design, ref_graph, base);
  const auto t0 = std::chrono::steady_clock::now();
  for (int stage = 1; stage <= 4; ++stage) {
    switch (stage) {
      case 1: reference.run_stage1(); break;
      case 2: reference.run_stage2(); break;
      case 3: reference.run_stage3(); break;
      case 4: reference.run_stage4(); break;
    }
    const std::string dir = root + "/s" + std::to_string(stage);
    fs::create_directories(dir, ec);
    if (core::Status s = ec ? core::Status::io_error(ec.message(), dir)
                            : core::write_checkpoint(dir, reference, stage);
        !s) {
      result.failures.push_back("stage " + std::to_string(stage) +
                                " checkpoint: " + s.to_string());
    }
  }
  const double full_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (const core::AuditReport* audit = reference.last_audit();
      audit == nullptr || !audit->clean()) {
    result.failures.push_back("reference run not audit-clean");
  }

  // Resume from every stage boundary; the completed flow must be
  // bit-identical to the reference.
  for (int stage = 1; stage <= 4; ++stage) {
    const std::string dir = root + "/s" + std::to_string(stage);
    tile::TileGraph graph = circuit.graph(design);
    core::Rabid resumed(design, graph, base);
    int completed = 0;
    if (core::Status s =
            core::resume_from_checkpoint(dir, resumed, &completed);
        !s) {
      result.failures.push_back("resume from stage " +
                                std::to_string(stage) + ": " +
                                s.to_string());
      continue;
    }
    if (completed < 2) resumed.run_stage2();
    if (completed < 3) resumed.run_stage3();
    if (completed < 4) resumed.run_stage4();
    const SolutionDiff diff = diff_solutions(
        design, ref_graph, reference.nets(), graph, resumed.nets());
    if (!diff.identical()) {
      std::ostringstream out;
      out << "resume from stage " << stage << ": " << diff.total
          << " differences vs straight run";
      for (const std::string& e : diff.entries) out << "; " << e;
      result.failures.push_back(out.str());
    }
    // Pure ground-up audit (last_audit() is empty when resuming from
    // the final stage's checkpoint, where nothing re-runs).
    if (!resumed.audit().clean()) {
      result.failures.push_back("resume from stage " +
                                std::to_string(stage) +
                                ": final audit not clean");
    }
  }

  // Deadline sweep: absolute floors plus fractions of the measured
  // full-run time, so some budgets expire mid-flow and some don't.
  const double budgets_ms[] = {0.05, 0.25 * full_ms, 0.75 * full_ms};
  for (const double budget : budgets_ms) {
    core::RabidOptions opt = base;
    opt.deadline_ms = budget > 0.0 ? budget : 0.05;
    tile::TileGraph graph = circuit.graph(design);
    core::Rabid run(design, graph, opt);
    run.run_all();
    if (run.timed_out()) result.deadline_expired = true;
    if (const core::AuditReport* audit = run.last_audit();
        audit == nullptr || !audit->clean()) {
      std::ostringstream out;
      out << "deadline " << opt.deadline_ms << "ms: audit not clean ("
          << (run.timed_out() ? "timed out" : "completed") << ", "
          << run.nets_cancelled() << " nets cancelled)";
      result.failures.push_back(out.str());
    }
    // The partial solution must round-trip the strict reader and
    // restore into a fresh instance ("unrouted" nets included).
    std::stringstream dump;
    core::write_solution(dump, design, graph, run.nets());
    core::Result<core::LoadedSolution> loaded =
        core::read_solution_checked(dump, design, graph);
    if (!loaded.ok()) {
      result.failures.push_back("deadline partial does not re-parse: " +
                                loaded.status().to_string());
      continue;
    }
    tile::TileGraph graph2 = circuit.graph(design);
    core::Rabid restored(design, graph2, base);
    if (core::Status s = restored.restore_solution(loaded.value(), 1); !s) {
      result.failures.push_back("deadline partial does not restore: " +
                                s.to_string());
    }
  }

  fs::remove_all(root, ec);  // best-effort scratch cleanup
  return result;
}

// ---------------------------------------------------------------------
// ECO differential fuzzing.

namespace {

/// A random point on some tile's center: perturbed pins stay on-grid so
/// moved and added nets are always routable terminals.
geom::Point random_tile_center(const tile::TileGraph& graph, util::Rng& rng) {
  return graph.center(static_cast<tile::TileId>(
      rng.uniform_int(0, graph.tile_count() - 1)));
}

/// Draws one non-empty perturbation against the planner's current
/// design/graph.  Every edit keeps the instance *plausibly* feasible
/// (pins on tile centers, capacities near their usage floor); genuinely
/// infeasible outcomes are excused later via the from-scratch check.
eco::Perturbation random_perturbation(const eco::IncrementalPlanner& planner,
                                      util::Rng& rng) {
  const tile::TileGraph& graph = planner.graph();
  const netlist::Design& design = planner.design();
  eco::Perturbation p;

  if (rng.chance(0.6) && !design.nets().empty()) {
    const auto id = static_cast<netlist::NetId>(
        rng.uniform_int(0, static_cast<std::int64_t>(design.nets().size()) - 1));
    eco::NetMove move;
    move.id = id;
    move.replacement = design.net(id);
    for (netlist::Pin& sink : move.replacement.sinks) {
      if (rng.chance(0.5)) sink.location = random_tile_center(graph, rng);
    }
    if (rng.chance(0.25)) {
      move.replacement.source.location = random_tile_center(graph, rng);
    }
    p.moved_nets.push_back(std::move(move));
  }
  if (rng.chance(0.35)) {
    netlist::Net extra;
    extra.name = "eco_fuzz_" + std::to_string(rng.next_u32());
    extra.source.location = random_tile_center(graph, rng);
    const std::int64_t sinks = rng.uniform_int(1, 3);
    for (std::int64_t s = 0; s < sinks; ++s) {
      extra.sinks.push_back({random_tile_center(graph, rng)});
    }
    p.added_nets.push_back(std::move(extra));
  }
  if (rng.chance(0.25) && design.nets().size() > 4) {
    const std::int64_t count = static_cast<std::int64_t>(design.nets().size());
    auto victim =
        static_cast<netlist::NetId>(rng.uniform_int(0, count - 1));
    // A net may be moved or removed at most once per perturbation;
    // shift off the moved net instead of wasting the step.
    if (!p.moved_nets.empty() && victim == p.moved_nets.front().id) {
      victim = static_cast<netlist::NetId>((victim + 1) % count);
    }
    p.removed_nets.push_back(victim);
  }
  if (rng.chance(0.5)) {
    const auto e =
        static_cast<tile::EdgeId>(rng.uniform_int(0, graph.edge_count() - 1));
    const std::int32_t floor =
        std::max<std::int32_t>(1, graph.wire_usage(e) - 1);
    p.wire_edits.push_back(
        {e, std::max<std::int32_t>(
                floor, graph.wire_capacity(e) +
                           static_cast<std::int32_t>(rng.uniform_int(-2, 3)))});
  }
  if (rng.chance(0.3)) {
    const auto t =
        static_cast<tile::TileId>(rng.uniform_int(0, graph.tile_count() - 1));
    p.site_edits.push_back(
        {t, std::max<std::int32_t>(
                std::max(0, graph.site_usage(t) - 1),
                graph.site_supply(t) +
                    static_cast<std::int32_t>(rng.uniform_int(-1, 2)))});
  }
  if (p.empty()) {  // guarantee progress: at least one capacity edit
    p.wire_edits.push_back({0, graph.wire_capacity(0) + 1});
  }
  return p;
}

}  // namespace

std::string EcoFuzzResult::describe() const {
  if (ok()) return {};
  std::ostringstream out;
  out << "eco fuzz seed " << seed << " failed after " << steps_run
      << " step(s):";
  for (const std::string& f : failures) out << "\n  " << f;
  if (!equivalence.empty()) out << "\n  final: " << equivalence;
  return out.str();
}

EcoFuzzResult run_eco(std::uint64_t seed, const EcoFuzzOptions& options) {
  const circuits::RandomCircuit circuit(seed, options.circuit);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  core::RabidOptions base;
  core::Rabid rabid(design, graph, base);
  rabid.run_all();

  eco::EcoOptions eopt;
  eopt.equivalence_epsilon = options.epsilon;
  eopt.tech = base.tech;
  eopt.buffer_library = base.buffer_library;
  eco::IncrementalPlanner planner(design, graph, rabid.nets(), eopt);

  EcoFuzzResult result;
  result.seed = seed;
  util::Rng rng(seed ^ util::Rng::hash("eco-fuzz"));

  for (std::int32_t step = 0; step < options.steps; ++step) {
    const eco::Perturbation p = random_perturbation(planner, rng);
    eco::ReplanStats stats;
    if (core::Status s = planner.replan(p, &stats); !s) {
      result.failures.push_back("step " + std::to_string(step) +
                                ": replan rejected: " + s.to_string());
      break;
    }
    ++result.steps_run;
    result.replanned += stats.dirty_nets;
    if (!planner.audit().clean()) {
      // Capacity overload is excused only when from-scratch cannot
      // avoid it either (the perturbed instance is infeasible).
      const eco::EquivalenceReport excuse = compare_with_scratch(planner);
      if (!excuse.audit_clean) {
        result.failures.push_back("step " + std::to_string(step) +
                                  ": audit violations (" + excuse.summary() +
                                  ")");
        break;
      }
    }
  }

  result.nets = planner.nets().size();
  const eco::EquivalenceReport report = compare_with_scratch(planner);
  result.equivalence = report.summary();
  if (result.failures.empty() && !report.within(options.epsilon)) {
    result.failures.push_back("incremental solution drifted past epsilon " +
                              std::to_string(options.epsilon));
  }
  return result;
}

}  // namespace rabid::fuzz
