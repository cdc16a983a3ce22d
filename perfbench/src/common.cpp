#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/json.hpp"
#include "obs/memory.hpp"

namespace perfbench {

using rabid::obs::Counter;
using rabid::obs::GaugeId;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool more_setup(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 0.25 && setup_s.size() < 1000);
}

bool more_work(Clock::time_point start, std::int64_t units, double seconds) {
  if (units == 0) return true;
  const double elapsed = seconds_since(start);
  return elapsed + elapsed / static_cast<double>(units) <= seconds;
}

void Quality::add(const rabid::core::StageStats& row) {
  lrule_fails += row.failed_nets;
  buffers += row.buffers;
  wirelength_mm += row.wirelength_mm;
  overflow += row.overflow;
}

bool same_solution(const rabid::core::StageStats& a,
                   const rabid::core::StageStats& b) {
  // Reports round-trip wirelength through JSON text, so compare it to a
  // relative 1e-9 rather than bit for bit.
  const double wl_tol =
      1e-9 * std::max(std::abs(a.wirelength_mm), std::abs(b.wirelength_mm));
  return a.buffers == b.buffers && a.failed_nets == b.failed_nets &&
         a.overflow == b.overflow &&
         std::abs(a.wirelength_mm - b.wirelength_mm) <= wl_tol;
}

std::string describe(const rabid::core::StageStats& row) {
  char text[160];
  std::snprintf(text, sizeof(text),
                "buffers=%" PRId64 " fails=%d overflow=%" PRId64
                " wirelength=%.6fmm",
                row.buffers, row.failed_nets, row.overflow,
                row.wirelength_mm);
  return text;
}

void Outcome::note(const std::string& why) {
  // The first few reasons are enough to diagnose; a run where every
  // plan fails the same way would otherwise flood stderr.
  if (++notes_ <= 8) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  } else if (notes_ == 9) {
    std::fprintf(stderr, "perfbench: (further failures not shown)\n");
  }
}

void Outcome::fail(const std::string& why) {
  ++failed_;
  note("failed plan: " + why);
}

void Outcome::wrong(const std::string& why) {
  ++failed_;
  correct_ = false;
  note("wrong output: " + why);
}

void Outcome::invariant(const std::string& why) {
  correct_ = false;
  note("benchmark invariant broken: " + why);
}

void Outcome::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    invariant("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string Outcome::json() const {
  std::string out = "{\"correct\":";
  out += correct_ ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ',';
    rabid::obs::json::append_escaped(out, m.name);
    char value[64];
    // %.17g keeps every digit the measurement has.
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += ":{\"value\":";
    out += value;
    out += ",\"unit\":";
    rabid::obs::json::append_escaped(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

Spans::Spans(bool enabled) : enabled_(enabled) {
  writer_.set_enabled(enabled);
}

int Spans::open(const std::string& name, int parent, std::int64_t plan) {
  if (!enabled_) return kNoParent;
  const double now = writer_.now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, -1.0, parent, plan});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::close(int handle) {
  if (!enabled_ || handle == kNoParent) return;
  const double now = writer_.now_us();
  std::string name;
  const char* category = nullptr;
  double start = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(handle)];
    s.end_us = now;
    name = s.name;
    start = s.start_us;
    categories_.push_back(
        "plan=" + std::to_string(s.plan) + " parent=" +
        (s.parent == kNoParent
             ? std::string("-")
             : spans_[static_cast<std::size_t>(s.parent)].name));
    category = categories_.back().c_str();
  }
  // Recorded on the closing thread, so each client gets its own track.
  writer_.complete(std::move(name), category, start, now - start);
}

double Spans::self_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.end_us >= 0.0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == name && s.end_us >= 0.0) {
      total += (s.end_us - s.start_us) - child_us[i];
    }
  }
  return total / 1000.0;
}

double Spans::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_us >= 0.0) total += s.end_us - s.start_us;
  }
  return total / 1000.0;
}

std::int64_t Spans::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_us >= 0.0) ++n;
  }
  return n;
}

double Spans::min_child_coverage(
    const std::string& parent_name,
    const std::vector<std::string>& children) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent == kNoParent || s.end_us < 0.0) continue;
    if (std::find(children.begin(), children.end(), s.name) !=
        children.end()) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  double worst = 1.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != parent_name || s.end_us < 0.0) continue;
    const double dur = s.end_us - s.start_us;
    if (dur > 0.0) worst = std::min(worst, covered[i] / dur);
  }
  return worst;
}

bool Spans::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  writer_.write_json(file);
  file.close();
  return static_cast<bool>(file);
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

void emit_layer_metrics(Outcome& out, const LayerTimes& t,
                        const rabid::obs::Snapshot& c, double plans) {
  const auto per_plan = [&](Counter k) {
    return ratio(static_cast<double>(c[k]), plans);
  };
  out.metric("circuits.generate_ms", t.generate_ms, "ms");
  out.metric("tile.build_graph_ms", t.build_graph_ms, "ms");

  out.metric("route.stage1_ms", t.stage1_ms, "ms");
  out.metric("route.stage2_ms", t.stage2_ms, "ms");
  out.metric("route.maze_routes", per_plan(Counter::kMazeRoutes),
             "count/plan");
  out.metric("route.maze_pops_per_route",
             ratio(static_cast<double>(c[Counter::kMazeHeapPops]),
                   static_cast<double>(c[Counter::kMazeRoutes])),
             "pops/route");
  out.metric("route.stage2_ripped_share",
             ratio(static_cast<double>(c[Counter::kStage2NetsRipped]),
                   static_cast<double>(c[Counter::kStage2NetsRipped] +
                                       c[Counter::kStage2NetsKept])),
             "ratio");
  out.metric("route.edge_cache_invalidations",
             per_plan(Counter::kEdgeCacheInvalidations), "count/plan");
  out.metric("route.stage2_local_nets", per_plan(Counter::kStage2LocalNets),
             "count/plan");
  out.metric("route.stage2_boundary_nets",
             per_plan(Counter::kStage2BoundaryNets), "count/plan");

  out.metric("util.pool_tasks", per_plan(Counter::kPoolTasks), "count/plan");
  out.metric("util.pool_worker_share",
             ratio(static_cast<double>(c[Counter::kPoolIndicesWorker]),
                   static_cast<double>(c[Counter::kPoolIndicesWorker] +
                                       c[Counter::kPoolIndicesInline])),
             "ratio");

  out.metric("buffer.stage3_ms", t.stage3_ms, "ms");
  out.metric("buffer.dp_nets", per_plan(Counter::kDpNets), "count/plan");
  out.metric("buffer.dp_cells_per_net",
             ratio(static_cast<double>(c[Counter::kDpCellsComputed]),
                   static_cast<double>(c[Counter::kDpNets])),
             "cells/net");
  out.metric("buffer.dp_states_pruned", per_plan(Counter::kDpStatesPruned),
             "count/plan");
  out.metric("buffer.commit_retries",
             per_plan(Counter::kBufferCommitRetries), "count/plan");

  out.metric("core.stage4_ms", t.stage4_ms, "ms");
  out.metric("core.flow_self_ms", t.flow_self_ms, "ms");
  out.metric("core.twopath_searches", per_plan(Counter::kTwoPathSearches),
             "count/plan");
  out.metric("core.twopath_pops_per_search",
             ratio(static_cast<double>(c[Counter::kTwoPathHeapPops]),
                   static_cast<double>(c[Counter::kTwoPathSearches])),
             "pops/search");
  out.metric("core.twopath_pushes_per_search",
             ratio(static_cast<double>(c[Counter::kTwoPathHeapPushes]),
                   static_cast<double>(c[Counter::kTwoPathSearches])),
             "pushes/search");
  out.metric("core.audit_ms", t.audit_ms, "ms");

  out.metric("eco.replan_ms", t.replan_ms, "ms");
  out.metric("eco.dirty_nets_per_replan", t.dirty_per_replan, "nets/replan");
  out.metric("eco.closure_amplification", t.amplification, "ratio");
  out.metric("eco.closure_iterations", t.closure_iterations,
             "iters/replan");

  out.metric("serve.queue_ms_p50", t.queue_p50, "ms");
  out.metric("serve.queue_ms_tail", t.queue_tail, "ms");
  out.metric("serve.service_ms.rabid", t.service_rabid, "ms");
  out.metric("serve.service_ms.mcf", t.service_mcf, "ms");
  out.metric("serve.service_ms.bbp", t.service_bbp, "ms");
  out.metric("serve.service_ms.stream", t.service_stream, "ms");
  out.metric("serve.transport_ms_p50", t.transport_p50, "ms");
  out.metric("serve.jobs_rejected",
             static_cast<double>(c[Counter::kServeJobsRejected]), "count");

  out.metric("mcf.phases",
             ratio(static_cast<double>(c[Counter::kMcfPhases]), t.mcf_jobs),
             "count/plan");
  out.metric("mcf.oracle_routes",
             ratio(static_cast<double>(c[Counter::kMcfOracleRoutes]),
                   t.mcf_jobs),
             "count/plan");

  out.metric("memory.tile_graph_mb", mb(c[GaugeId::kTileGraphBytes]), "MB");
  out.metric("memory.edge_cost_cache_mb",
             mb(c[GaugeId::kEdgeCostCacheBytes]), "MB");
  out.metric("memory.maze_scratch_mb", mb(c[GaugeId::kMazeScratchBytes]),
             "MB");
  out.metric("memory.dp_arena_mb", mb(c[GaugeId::kDpArenaBytes]), "MB");
  out.metric("memory.route_tree_mb", mb(c[GaugeId::kRouteTreeBytes]), "MB");

  out.metric("obs.overhead_pct", t.overhead_pct, "%");
  out.metric("obs.stage_span_coverage_pct", t.coverage_pct, "%");
  out.metric("quality.overflow_edges", t.overflow_edges, "count");
}

namespace {

/// This process's peak resident set in bytes.  VmHWM belongs to the
/// address space, which exec starts afresh; getrusage's ru_maxrss (what
/// obs::peak_rss_bytes reads) survives exec on Linux and would report
/// the launching interpreter's peak instead.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return rabid::obs::peak_rss_bytes();
}

}  // namespace

void emit_end_to_end(Outcome& out, const EndToEnd& e) {
  std::vector<double> rates, p50s, all;
  double plans = 0.0, seconds = 0.0;
  for (const EndToEnd::Block& b : e.blocks) {
    if (b.seconds > 0.0) rates.push_back(b.plans / b.seconds);
    if (!b.latencies_ms.empty()) p50s.push_back(median(b.latencies_ms));
    all.insert(all.end(), b.latencies_ms.begin(), b.latencies_ms.end());
    plans += b.plans;
    seconds += b.seconds;
  }
  std::fprintf(stderr,
               "perfbench: %.0f plans in %.3f s over %zu blocks; latency ms "
               "p50 %.3f p90 %.3f p95 %.3f p98 %.3f max %.3f (%zu samples); "
               "tail = p%g; %zu set-ups\n",
               plans, seconds, e.blocks.size(), median(all),
               quantile(all, 0.90), quantile(all, 0.95), quantile(all, 0.98),
               quantile(all, 1.0), all.size(), e.tail_q * 100.0,
               e.setup_s.size());
  out.metric("plans_per_s", median(rates), "1/s");
  out.metric("latency_p50_ms", median(p50s), "ms");
  out.metric("latency_tail_ms", quantile(all, e.tail_q), "ms");
  out.metric("setup_s", median(e.setup_s), "s");
  out.metric("peak_rss_mb", mb(peak_rss_bytes()), "MB");
  out.metric("lrule_fails", static_cast<double>(e.quality.lrule_fails),
             "count");
  out.metric("buffers_used", static_cast<double>(e.quality.buffers),
             "count");
  out.metric("wirelength_mm", e.quality.wirelength_mm, "mm");
}

void require_obs_off(Outcome& out, const char* where) {
  // Untraced flows keep the default obs level, as the flow_throughput
  // bench does.
  if (rabid::core::RabidOptions{}.obs_level != rabid::obs::Level::kOff) {
    out.invariant("RabidOptions no longer default to obs off");
  }
  const rabid::obs::Registry& reg = rabid::obs::Registry::instance();
  if (reg.level() != rabid::obs::Level::kOff) {
    out.invariant(std::string("observability is on ") + where +
                  "; the untraced run must measure uninstrumented code");
    return;
  }
  const rabid::obs::Snapshot snap = reg.snapshot();
  for (std::uint64_t v : snap.counters) {
    if (v != 0) {
      out.invariant(std::string("obs counters recorded ") + where +
                    " although the registry is off");
      return;
    }
  }
}

Watchdog::Watchdog(std::string workload, double limit_s)
    : workload_(std::move(workload)) {
  thread_ = std::thread([this, limit_s] {
    std::unique_lock<std::mutex> lock(mu_);
    const bool finished = cv_.wait_for(
        lock, std::chrono::duration<double>(limit_s), [this] { return done_; });
    if (!finished) {
      std::fprintf(stderr,
                   "perfbench: workload %s did not finish within %.0f s; "
                   "aborting the run\n",
                   workload_.c_str(), limit_s);
      std::fflush(stderr);
      std::_Exit(3);
    }
  });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

}  // namespace perfbench
