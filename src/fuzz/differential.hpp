#pragma once

/// \file differential.hpp
/// Fuzzed differential testing across the full RABID flow.
///
/// One fuzz instance = one seeded RandomCircuit, planned end to end
/// twice with a region-sharded Stage 2 (the only stage the thread pool
/// runs) — once at `threads_a`, once at `threads_b` workers — with the
/// SolutionAuditor (core/audit.hpp) running after every stage of both
/// runs.  The two audited solutions are then diffed node for node:
/// trees, buffer placements, length-rule flags, delays, and both usage
/// books must match bit for bit (the PR-1 parallelism contract), and
/// both audits must be violation-free.
///
/// This generalizes tests/core/determinism_test.cpp's two fixed
/// circuits into a property checked across hundreds of random
/// instances; tools/fuzz_flow.cpp drives it from the command line and
/// CI runs a time-boxed smoke of it on every push.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuits/random_circuit.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"

namespace rabid::fuzz {

/// Node-for-node comparison of two solutions over the same design.
struct SolutionDiff {
  /// Human-readable difference records, capped at `max_entries`.
  std::vector<std::string> entries;
  /// Total differences found (may exceed entries.size()).
  std::int64_t total = 0;

  bool identical() const { return total == 0; }
};

/// Diffs per-net trees/buffers/flags/delays and the two graphs' books.
/// The designs behind `a` and `b` must be the same; `max_entries` caps
/// the recorded strings, never the count.
SolutionDiff diff_solutions(const netlist::Design& design,
                            const tile::TileGraph& graph_a,
                            std::span<const core::NetState> a,
                            const tile::TileGraph& graph_b,
                            std::span<const core::NetState> b,
                            std::size_t max_entries = 64);

struct DifferentialOptions {
  std::int32_t threads_a = 1;
  std::int32_t threads_b = 4;
  circuits::RandomCircuitOptions circuit;
};

/// Everything a failure needs to be filed (and replayed from the seed).
struct FuzzResult {
  std::uint64_t seed = 0;
  std::size_t nets = 0;
  std::int64_t buffers = 0;
  SolutionDiff diff;
  core::AuditReport audit_a;
  core::AuditReport audit_b;

  bool ok() const {
    return diff.identical() && audit_a.clean() && audit_b.clean();
  }
  /// Multi-line failure description (empty when ok()).
  std::string describe() const;
};

/// Runs one differential fuzz instance.
FuzzResult run_differential(std::uint64_t seed,
                            const DifferentialOptions& options = {});

/// One robustness fuzz instance over the same seeded circuits: the
/// hardening paths of the flow, exercised end to end.
///
///   * Deadline sweep: the flow re-runs under mid-run wall-clock
///     budgets (fractions of the measured full-run time, down to
///     sub-millisecond).  Every run — timed out or not — must pass the
///     final audit, and its dumped solution must survive the strict
///     reader and restore into a fresh instance (partial solutions
///     round-trip, "unrouted" nets included).
///   * Checkpoint/resume: the reference run checkpoints after every
///     stage; each checkpoint is resumed into a fresh instance, the
///     remaining stages re-run, and the final solution diffed against
///     the reference.  Any difference is a failure — resume is
///     bit-identical by contract.
struct RobustnessResult {
  std::uint64_t seed = 0;
  /// Stages whose checkpoint-resume produced a different final
  /// solution (or failed to restore), with diff summaries.
  std::vector<std::string> failures;
  /// True when at least one deadline run actually expired mid-flow
  /// (coverage signal: the sweep hit the cancellation paths).
  bool deadline_expired = false;

  bool ok() const { return failures.empty(); }
  /// Multi-line failure description (empty when ok()).
  std::string describe() const;
};

/// Runs one robustness instance.  `scratch_dir` must be an existing
/// writable directory; checkpoints are written under it.
RobustnessResult run_robustness(std::uint64_t seed,
                                const std::string& scratch_dir,
                                const DifferentialOptions& options = {});

/// One incremental-vs-scratch (ECO) fuzz instance: a seeded circuit is
/// batch-planned, adopted into an eco::IncrementalPlanner, and hit with
/// `steps` random perturbations (net moves, adds, removes, wire and
/// site capacity edits).  After every step the books must audit clean
/// (capacity overload is excused only when a from-scratch plan of the
/// same perturbed design cannot avoid it either); after the final step
/// the incremental solution must stay within `epsilon` of from-scratch
/// (eco::EquivalenceReport::within).
struct EcoFuzzOptions {
  std::int32_t steps = 4;
  /// Relative wirelength / buffer-count slack versus from-scratch.
  double epsilon = 0.30;
  circuits::RandomCircuitOptions circuit;
};

struct EcoFuzzResult {
  std::uint64_t seed = 0;
  std::size_t nets = 0;         ///< nets in the final design
  std::int64_t replanned = 0;   ///< dirty nets across all steps
  std::int64_t steps_run = 0;
  /// One entry per violated invariant (empty when the instance passed).
  std::vector<std::string> failures;
  /// Final equivalence summary (always populated after the last step).
  std::string equivalence;

  bool ok() const { return failures.empty(); }
  /// Multi-line failure description (empty when ok()).
  std::string describe() const;
};

/// Runs one ECO differential fuzz instance.
EcoFuzzResult run_eco(std::uint64_t seed, const EcoFuzzOptions& options = {});

}  // namespace rabid::fuzz
