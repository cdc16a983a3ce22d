#pragma once

/// \file common.hpp
/// Shared plumbing of the perfbench workloads: run arguments, the result
/// accumulator every workload fills, the span recorder of the traced
/// run, and small statistics helpers.
///
/// Result semantics (printed as the last stdout line by main.cpp):
///   attempted  plans the workload started (a plan is one full flow, one
///              ECO replan, or one serve job)
///   failed     plans that returned an error status, timed out, were
///              rejected, whose audit reported an error, or whose output
///              differs from its reference
///   correct    false when a plan *claimed* success (ok status, clean
///              audit) but its output differs from the reference, or when
///              one of the benchmark's own invariants broke.  A plan that
///              reports its own defect through its audit is a failed plan,
///              not a wrong one.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rabid.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);
double seconds_since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Brief run of every phase (the self-test): one pass / one flow /
  /// one chain segment, whatever --seconds says.
  bool smoke = false;
  /// Chrome-trace output path for the traced run (empty = none).
  std::string trace_out;
};

/// Deterministic 64-bit mixer (splitmix64) for deriving per-step seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// Value at quantile q (0..1) of `values` (nearest rank); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The end-to-end quality of a fixed plan set (final-stage rows summed).
struct Quality {
  std::int64_t lrule_fails = 0;
  std::int64_t buffers = 0;
  double wirelength_mm = 0.0;
  std::int64_t overflow = 0;
  void add(const rabid::core::StageStats& row);
};

/// True when two final-stage rows describe the same solution.
bool same_solution(const rabid::core::StageStats& a,
                   const rabid::core::StageStats& b);
std::string describe(const rabid::core::StageStats& row);

class Outcome {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void attempt() { ++attempted_; }
  /// A plan failed (error status, timeout, rejection, audit error).
  void fail(const std::string& why);
  /// A plan claimed success but its output is wrong; also a failure.
  void wrong(const std::string& why);
  /// A benchmark invariant broke (no plan to blame).
  void invariant(const std::string& why);

  void metric(std::string name, double value, std::string unit);

  std::int64_t attempted() const { return attempted_; }

  /// The result object (one line of JSON).
  std::string json() const;

 private:
  void note(const std::string& why);

  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t notes_ = 0;
  std::vector<Metric> metrics_;
};

/// Spans of the traced run: name, start, end, parent, and the plan id
/// they share.  Kept in memory; each finished span also goes to an
/// obs::TraceWriter on the recording thread, written out by write().
/// Thread-safe (the serve clients record concurrently).
class Spans {
 public:
  static constexpr int kNoParent = -1;

  explicit Spans(bool enabled);

  /// Opens a span; returns its handle (kNoParent when disabled).
  int open(const std::string& name, int parent, std::int64_t plan);
  void close(int handle);

  /// RAII open/close.
  class Scope {
   public:
    Scope(Spans& spans, const std::string& name, int parent,
          std::int64_t plan)
        : spans_(spans), handle_(spans.open(name, parent, plan)) {}
    ~Scope() { spans_.close(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int handle() const { return handle_; }

   private:
    Spans& spans_;
    int handle_;
  };

  /// Sum of self times (duration minus the time its children cover) of
  /// every closed span named `name`, in milliseconds.
  double self_ms(const std::string& name) const;
  /// Sum of durations of every closed span named `name`, in ms.
  double total_ms(const std::string& name) const;
  std::int64_t count(const std::string& name) const;
  /// Smallest share (0..1) of a `parent_name` span covered by its
  /// children named in `children`; 1 when no such span exists.
  double min_child_coverage(const std::string& parent_name,
                            const std::vector<std::string>& children) const;

  /// Writes the chrome-trace JSON; false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = kNoParent;
    std::int64_t plan = 0;
  };

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  /// Category strings ("plan=N parent=X") must outlive the writer's
  /// events; a deque never moves its elements.
  std::deque<std::string> categories_;
  rabid::obs::TraceWriter writer_;
};

/// Per-layer metrics every workload prints in the traced run, with the
/// value the layers gave (0 where the workload runs no such layer).
/// `c` holds the obs counter deltas and gauges of the traced part (the
/// registry is reset before it); `plans` normalizes the per-plan counts.
struct LayerTimes {
  double generate_ms = 0, build_graph_ms = 0;
  double stage1_ms = 0, stage2_ms = 0, stage3_ms = 0, stage4_ms = 0;
  double flow_self_ms = 0, audit_ms = 0;
  double replan_ms = 0, dirty_per_replan = 0, amplification = 0,
         closure_iterations = 0;
  double queue_p50 = 0, queue_tail = 0, transport_p50 = 0;
  double service_rabid = 0, service_mcf = 0, service_bbp = 0,
         service_stream = 0;
  double mcf_jobs = 0;
  double overhead_pct = 0, coverage_pct = 100;
  double overflow_edges = 0;
};
void emit_layer_metrics(Outcome& out, const LayerTimes& t,
                        const rabid::obs::Snapshot& c, double plans);

/// End-to-end metrics every workload prints in the untraced run.  The
/// timed region is cut into blocks: a table1 pass, a scale flow, an ECO
/// chain segment, or a one-second serve window.  plans_per_s and
/// latency_p50_ms are medians over the blocks, so a slow spell of a
/// shared host inside one run moves them less than a whole-run mean.
struct EndToEnd {
  struct Block {
    double plans = 0;    ///< plans completed in the block
    double seconds = 0;  ///< wall seconds the block's plans took
    std::vector<double> latencies_ms;
  };
  std::vector<Block> blocks;
  /// The workload's tail percentile over all samples (README.md: the
  /// highest one with at least ten samples beyond it at the run length).
  double tail_q = 0.9;
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  Quality quality;
};
void emit_end_to_end(Outcome& out, const EndToEnd& e);

/// Whether to repeat the workload's set-up once more: setup_s is the
/// median over at least 3 repetitions and at least 0.25 s of set-up, so
/// millisecond set-ups are still measured steadily.
bool more_setup(const std::vector<double>& setup_s);

/// Whether a closed loop that started at `start` and has run `units`
/// units of work (passes, segments) should start another: always at
/// least one, and never one that would likely end past `seconds`.
bool more_work(Clock::time_point start, std::int64_t units, double seconds);

/// Fails the run (correct = false) unless the registry records nothing:
/// the untraced table1 / scale / eco runs must measure the
/// uninstrumented code, as the flow_throughput bench requires too.
void require_obs_off(Outcome& out, const char* where);

/// If the owner is not destroyed within `limit_s`, prints a message
/// naming the workload and exits the process with code 3, so a hung
/// workload ends with a reason instead of an outside timeout.
class Watchdog {
 public:
  Watchdog(std::string workload, double limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::string workload_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// The workloads (flow.cpp, eco.cpp, serve.cpp).
void run_table1(const Args& args, Outcome& out);
void run_scale10k_sharded(const Args& args, Outcome& out);
void run_eco_chain(const Args& args, Outcome& out);
void run_serve_mix(const Args& args, Outcome& out);

}  // namespace perfbench
