// serve_mix: an in-process serve::Server (2 workers, one thread per job,
// counters on — the daemon's defaults) behind its real TcpTransport on
// an ephemeral loopback port, driven by 4 closed-loop client
// connections that each keep one job in flight.  Every job asks for
// "audit":true.  The job mix is drawn per client from the seed: ~70%
// rabid plans on apte/xerox/hp/ami33/ami49, ~15% mcf on apte/hp, ~5% bbp
// on ami49, ~10% stream jobs on apte.
//
// One plan = one job, timed from submit to its terminal event at the
// client.  Set-up is server start plus a warm-up of one job per (kind,
// circuit) pair; those warm-up reports are the fixed set the quality
// metrics are taken over and the reference later mcf/bbp/stream jobs
// must match.  Rabid jobs must match a local Rabid run of the same
// circuit (the table1 solution).  Done lines are parsed after the timed
// region.  Shutdown is begin_drain() + drain_and_join(); every client
// read has a timeout.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "common.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/run_report.hpp"
#include "obs/json.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

namespace json = rabid::obs::json;
using rabid::core::StageStats;

constexpr int kClients = 4;
constexpr int kReadTimeoutS = 60;

enum class Kind { kRabid, kMcf, kBbp, kStream };
constexpr const char* kKindNames[] = {"rabid", "mcf", "bbp", "stream"};

struct JobSpec {
  Kind kind;
  const char* circuit;
};

constexpr const char* kRabidCircuits[] = {"apte", "xerox", "hp", "ami33",
                                          "ami49"};
/// One job per (kind, circuit) pair of the mix: the warm-up set.
const std::vector<JobSpec> kWarmup = {
    {Kind::kRabid, "apte"},  {Kind::kRabid, "xerox"}, {Kind::kRabid, "hp"},
    {Kind::kRabid, "ami33"}, {Kind::kRabid, "ami49"}, {Kind::kMcf, "apte"},
    {Kind::kMcf, "hp"},      {Kind::kBbp, "ami49"},   {Kind::kStream, "apte"},
};

std::string key(const JobSpec& s) {
  return std::string(kKindNames[static_cast<int>(s.kind)]) + "/" + s.circuit;
}

/// The client's j-th job: a seeded draw from the mix.
JobSpec draw(std::uint64_t seed, int client, std::int64_t j) {
  const std::uint64_t r = mix_seed(
      mix_seed(seed, static_cast<std::uint64_t>(client)),
      static_cast<std::uint64_t>(j));
  const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
  const std::uint64_t pick = r & 0xffff;
  if (u < 0.70) return {Kind::kRabid, kRabidCircuits[pick % 5]};
  if (u < 0.85) return {Kind::kMcf, pick % 2 == 0 ? "apte" : "hp"};
  if (u < 0.90) return {Kind::kBbp, "ami49"};
  return {Kind::kStream, "apte"};
}

std::string request_line(const JobSpec& s, const std::string& id) {
  std::string line = s.kind == Kind::kStream ? R"({"type":"stream")"
                                             : R"({"type":"plan")";
  line += R"(,"id":")" + id + R"(","circuit":")" + s.circuit + '"';
  if (s.kind == Kind::kMcf) line += R"(,"backend":"mcf")";
  if (s.kind == Kind::kBbp) line += R"(,"backend":"bbp")";
  line += R"(,"audit":true})";
  return line;
}

/// Blocking NDJSON client with a timeout on every read and write.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = kReadTimeoutS;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    const std::string framed = line + '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One full line, or nullopt on timeout / closed connection.
  std::optional<std::string> recv_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// What a client saw of one job.
struct JobRecord {
  JobSpec spec{Kind::kRabid, ""};
  std::string id;
  double rtt_ms = 0.0;
  double end_s = 0.0;    ///< when it ended, seconds into the loop
  std::string terminal;  ///< the terminal event line ("" = none arrived)
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// Terminal events end a job: done / failed / rejected / cancelled for
/// its id, or an id-less protocol error.
bool is_terminal(const std::string& line, const std::string& id) {
  for (const char* event : {"done", "failed", "rejected", "cancelled"}) {
    if (starts_with(line, std::string(R"({"event":")") + event +
                              R"(","id":")" + id + '"')) {
      return true;
    }
  }
  return starts_with(line, R"({"event":"error")");
}

/// Reads until `id`'s terminal event; false on timeout / disconnect.
bool await_terminal(Client& client, const std::string& id,
                    std::string* terminal) {
  while (true) {
    std::optional<std::string> line = client.recv_line();
    if (!line) return false;
    if (is_terminal(*line, id)) {
      *terminal = std::move(*line);
      return true;
    }
  }
}

/// A server behind a TCP transport, with the acceptor thread; stopped
/// by begin_drain() + drain_and_join() on destruction.
class Service {
 public:
  explicit Service(Outcome& out) {
    rabid::serve::ServerOptions options;
    options.workers = 2;
    options.job_threads = 1;
    server_ = std::make_unique<rabid::serve::Server>(options);
    rabid::core::Status status;
    transport_ =
        std::make_unique<rabid::serve::TcpTransport>(*server_, 0, &status);
    if (!status) {
      out.invariant("serve transport: " + status.to_string());
      transport_.reset();
      return;
    }
    acceptor_ = std::thread([this] { transport_->accept_loop(); });
  }
  ~Service() {
    if (transport_) {
      transport_->stop_accepting();
      acceptor_.join();
    }
    server_->begin_drain();
    server_->drain_and_join();
    if (transport_) transport_->close_connections();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  bool ok() const { return transport_ != nullptr; }
  std::uint16_t port() const { return transport_->port(); }

 private:
  std::unique_ptr<rabid::serve::Server> server_;
  std::unique_ptr<rabid::serve::TcpTransport> transport_;
  std::thread acceptor_;
};

/// The parsed terminal event of a done job.
struct Done {
  std::string verdict;
  double elapsed_ms = 0.0;
  double queue_ms = 0.0;
  std::optional<rabid::core::RunReport> report;  ///< rabid/mcf/bbp
  const json::Value* stream = nullptr;           ///< stream report
  json::Value doc;
};

/// Parses a done line; an error message when it is not one.
std::string parse_done(const std::string& line, Done* done) {
  std::string error;
  std::optional<json::Value> doc = json::parse(line, &error);
  if (!doc) return "unparseable event (" + error + ")";
  done->doc = std::move(*doc);
  const json::Value* event = done->doc.find("event");
  if (event == nullptr || !event->is_string() ||
      event->as_string() != "done") {
    return "ended with: " + line.substr(0, 200);
  }
  const json::Value* verdict = done->doc.find("verdict");
  const json::Value* elapsed = done->doc.find("elapsed_ms");
  const json::Value* queue = done->doc.find("queue_ms");
  const json::Value* report = done->doc.find("report");
  if (verdict == nullptr || !verdict->is_string() || elapsed == nullptr ||
      !elapsed->is_number() || queue == nullptr || !queue->is_number() ||
      report == nullptr || !report->is_object()) {
    return "done event lacks verdict/elapsed_ms/queue_ms/report";
  }
  done->verdict = verdict->as_string();
  done->elapsed_ms = elapsed->as_number();
  done->queue_ms = queue->as_number();
  const json::Value* schema = report->find("schema");
  if (schema != nullptr && schema->is_string() &&
      schema->as_string() == "rabid.stream_report.v1") {
    done->stream = report;
    return "";
  }
  done->report = rabid::core::RunReport::parse(json::dump(*report), &error);
  if (!done->report) return "unparseable run report (" + error + ")";
  return "";
}

std::int64_t stream_field(const json::Value& report, const char* name) {
  const json::Value* v = report.find(name);
  return v != nullptr && v->is_number() ? v->as_int() : -1;
}

/// Reference outcome of one (kind, circuit) pair.
struct Reference {
  StageStats row;        ///< rabid/mcf/bbp final row
  std::int64_t planned = -1, parked = -1;  ///< stream totals
};

/// Checks one job's terminal event against its reference; records the
/// reference when there is none yet.  Returns false if the job failed.
bool check_job(const JobRecord& job, std::map<std::string, Reference>& refs,
               Done* done, Outcome& out) {
  const std::string what = "serve job " + job.id + " (" + key(job.spec) + ")";
  if (job.terminal.empty()) {
    out.fail(what + ": no terminal event within " +
             std::to_string(kReadTimeoutS) + " s");
    return false;
  }
  if (std::string err = parse_done(job.terminal, done); !err.empty()) {
    out.fail(what + ": " + err);
    return false;
  }
  auto found = refs.find(key(job.spec));
  if (done->stream != nullptr) {
    const bool clean =
        done->stream->find("audit_clean") != nullptr &&
        done->stream->find("audit_clean")->is_bool() &&
        done->stream->find("audit_clean")->as_bool();
    if (done->verdict != "ok" || !clean) {
      out.fail(what + ": verdict " + done->verdict + ", audit_clean " +
               (clean ? "true" : "false"));
      return false;
    }
    const std::int64_t planned = stream_field(*done->stream, "planned");
    const std::int64_t parked = stream_field(*done->stream, "parked");
    if (found == refs.end()) {
      refs[key(job.spec)] = Reference{{}, planned, parked};
    } else if (found->second.planned != planned ||
               found->second.parked != parked) {
      out.wrong(what + ": planned/parked " + std::to_string(planned) + "/" +
                std::to_string(parked) + " differ from the reference " +
                std::to_string(found->second.planned) + "/" +
                std::to_string(found->second.parked));
      return false;
    }
    return true;
  }
  const rabid::core::RunReport& r = *done->report;
  if (r.stages.empty()) {
    out.fail(what + ": report has no stage rows");
    return false;
  }
  const StageStats& row = r.stages.back();
  if (found != refs.end() && !same_solution(row, found->second.row)) {
    out.wrong(what + ": " + describe(row) + " differs from the reference " +
              describe(found->second.row));
    return false;
  }
  if (done->verdict != "ok" || !r.audited || r.audit_errors != 0) {
    out.fail(what + ": verdict " + done->verdict + ", " +
             std::to_string(r.audit_errors) + " audit error(s)" +
             (r.audited ? "" : ", not audited"));
    return false;
  }
  if (found == refs.end()) refs[key(job.spec)] = Reference{row, -1, -1};
  return true;
}

/// Submits the warm-up set on one connection (pipelined) and waits for
/// every terminal event.
std::vector<JobRecord> warm_up(std::uint16_t port, int rep, Outcome& out) {
  std::vector<JobRecord> jobs;
  Client client(port);
  if (!client.connected()) {
    out.invariant("warm-up client cannot connect");
    return jobs;
  }
  for (std::size_t k = 0; k < kWarmup.size(); ++k) {
    JobRecord job;
    job.spec = kWarmup[k];
    // Appended piecewise: GCC 12 misreports "lit" + to_string(...) as an
    // overlapping copy (-Wrestrict).
    job.id = "w";
    job.id += std::to_string(rep) + "-" + std::to_string(k);
    if (!client.send_line(request_line(job.spec, job.id))) {
      out.invariant("warm-up submit failed");
      return jobs;
    }
    jobs.push_back(job);
  }
  // Events of pipelined jobs interleave; demultiplex by id.
  std::size_t open = jobs.size();
  while (open > 0) {
    std::optional<std::string> line = client.recv_line();
    if (!line) {
      out.invariant("warm-up timed out after " +
                    std::to_string(kReadTimeoutS) + " s");
      return jobs;
    }
    for (JobRecord& job : jobs) {
      if (job.terminal.empty() && is_terminal(*line, job.id)) {
        job.terminal = *line;
        --open;
        break;
      }
    }
  }
  return jobs;
}

struct LoopResult {
  std::vector<JobRecord> jobs;  ///< in completion order
  double seconds = 0.0;  ///< the submit window
  double wall_s = 0.0;   ///< until the last job ended
};

/// The closed loop: kClients connections, one job in flight each, until
/// `seconds` have passed (or one round per client in smoke mode).
LoopResult closed_loop(std::uint16_t port, const Args& args, double seconds,
                       const std::string& phase, Spans& spans,
                       Outcome& out) {
  std::vector<std::vector<JobRecord>> per_client(kClients);
  std::atomic<bool> connect_failed{false};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(port);
      if (!client.connected()) {
        connect_failed = true;
        return;
      }
      for (std::int64_t j = 0;; ++j) {
        if (j > 0 && (args.smoke || seconds_since(start) >= seconds)) break;
        JobRecord job;
        job.spec = draw(args.seed, c, j);
        job.id = phase + std::to_string(c) + "-" + std::to_string(j);
        const std::int64_t plan = c * 1000000 + j;
        const Spans::Scope span(
            spans, std::string("serve.job.") +
                       kKindNames[static_cast<int>(job.spec.kind)],
            Spans::kNoParent, plan);
        const auto t0 = Clock::now();
        const bool sent = client.send_line(request_line(job.spec, job.id));
        const bool ended =
            sent && await_terminal(client, job.id, &job.terminal);
        job.rtt_ms = ms_since(t0);
        job.end_s = seconds_since(start);
        per_client[static_cast<std::size_t>(c)].push_back(std::move(job));
        if (!ended) break;  // the connection is unusable now
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult result;
  result.wall_s = seconds_since(start);
  // A smoke round is one job per client, whenever it ends.
  result.seconds = args.smoke ? result.wall_s : seconds;
  if (connect_failed) out.invariant("a serve client cannot connect");
  for (auto& jobs : per_client) {
    for (JobRecord& job : jobs) result.jobs.push_back(std::move(job));
  }
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.end_s < b.end_s;
            });
  return result;
}

/// Jobs per end-to-end block: blocks are runs of consecutive job
/// completions, about one second of the mix each.
constexpr int kBlockJobs = 32;

/// Per-kind and per-phase aggregates of a checked closed loop.
struct LoopStats {
  std::int64_t completed = 0;
  std::vector<double> queue_ms, transport_ms;
  std::vector<double> service_ms[4];
  std::vector<EndToEnd::Block> blocks;
};

LoopStats check_loop(const LoopResult& loop,
                     std::map<std::string, Reference>& refs, Outcome& out) {
  LoopStats stats;
  EndToEnd::Block block;
  double block_start = 0.0;
  for (const JobRecord& job : loop.jobs) {
    out.attempt();
    Done done;
    const bool ok = check_job(job, refs, &done, out);
    if (done.verdict.empty()) continue;
    ++stats.completed;
    stats.queue_ms.push_back(done.queue_ms);
    stats.service_ms[static_cast<int>(job.spec.kind)].push_back(
        done.elapsed_ms);
    stats.transport_ms.push_back(job.rtt_ms - done.queue_ms -
                                 done.elapsed_ms);
    // Blocks cover the submit window only: past it, clients stop and the
    // offered load falls.  Latency counts only plans that succeeded;
    // failures are in `failed` and miss any latency limit.
    if (job.end_s > loop.seconds) continue;
    block.plans += 1.0;
    if (ok) block.latencies_ms.push_back(job.rtt_ms);
    if (block.plans == kBlockJobs) {
      block.seconds = job.end_s - block_start;
      block_start = job.end_s;
      stats.blocks.push_back(std::move(block));
      block = EndToEnd::Block{};
    }
  }
  if (stats.blocks.empty() && block.plans > 0) {  // a short (smoke) loop
    block.seconds = loop.jobs.back().end_s - block_start;
    stats.blocks.push_back(std::move(block));
  }
  return stats;
}

/// Runs the rabid circuits of the mix locally: the reference every rabid
/// job must match (the table1 solution of the same circuit).
void local_references(std::map<std::string, Reference>& refs, Spans& spans,
                      Outcome& out) {
  std::int64_t plan = -100;
  for (const char* name : kRabidCircuits) {
    const rabid::circuits::CircuitSpec& spec =
        *rabid::circuits::find_spec(name);
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
    rabid.run_all();
    bool clean = false;
    {
      const Spans::Scope s(spans, "core.audit", Spans::kNoParent, plan--);
      clean = rabid.audit().clean();
    }
    if (!clean) out.invariant(std::string("local reference ") + name +
                              " does not audit clean");
    refs[key({Kind::kRabid, name})] =
        Reference{rabid.stage_history().back(), -1, -1};
  }
}

}  // namespace

void run_serve_mix(const Args& args, Outcome& out) {
  rabid::obs::Registry& registry = rabid::obs::Registry::instance();
  Spans spans(args.trace);
  EndToEnd e2e;
  e2e.tail_q = 0.95;

  std::map<std::string, Reference> refs;
  local_references(refs, spans, out);

  // Set-up: server start plus warm-up, repeated; the last server stays.
  std::unique_ptr<Service> service;
  for (int rep = 0; more_setup(e2e.setup_s); ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<Service>(out);
    if (!service->ok()) return;
    std::vector<JobRecord> warm = warm_up(service->port(), rep, out);
    e2e.setup_s.push_back(seconds_since(t0));
    for (const JobRecord& job : warm) {
      out.attempt();
      Done done;
      if (!check_job(job, refs, &done, out)) continue;
      if (rep == 0 && done.report) e2e.quality.add(done.report->stages.back());
    }
  }

  if (!args.trace) {
    const LoopResult loop =
        closed_loop(service->port(), args, args.seconds, "j", spans, out);
    service.reset();  // drain and join before reading the results
    LoopStats stats = check_loop(loop, refs, out);
    e2e.blocks = std::move(stats.blocks);
    emit_end_to_end(out, e2e);
    return;
  }

  // Traced run: an untraced half, then a traced half whose counter
  // deltas and spans give the per-layer table.
  Spans off(false);
  const LoopResult plain =
      closed_loop(service->port(), args, args.seconds / 2, "u", off, out);
  registry.reset();
  const LoopResult traced =
      closed_loop(service->port(), args, args.seconds / 2, "t", spans, out);
  const rabid::obs::Snapshot counts = registry.snapshot();
  service.reset();
  const LoopStats plain_stats = check_loop(plain, refs, out);
  const LoopStats stats = check_loop(traced, refs, out);

  LayerTimes t;
  const double n = static_cast<double>(traced.jobs.size());
  // The server generates the same five circuits its warm-up touches.
  t.generate_ms = spans.total_ms("circuits.generate_design");
  t.build_graph_ms = spans.total_ms("tile.build_graph");
  t.audit_ms = spans.total_ms("core.audit") /
               static_cast<double>(spans.count("core.audit"));
  t.queue_p50 = median(stats.queue_ms);
  t.queue_tail = quantile(stats.queue_ms, e2e.tail_q);
  t.transport_p50 = median(stats.transport_ms);
  t.service_rabid = median(stats.service_ms[static_cast<int>(Kind::kRabid)]);
  t.service_mcf = median(stats.service_ms[static_cast<int>(Kind::kMcf)]);
  t.service_bbp = median(stats.service_ms[static_cast<int>(Kind::kBbp)]);
  t.service_stream = median(stats.service_ms[static_cast<int>(Kind::kStream)]);
  t.mcf_jobs = static_cast<double>(
      stats.service_ms[static_cast<int>(Kind::kMcf)].size());
  const double plain_pps = plain_stats.completed / plain.wall_s;
  const double traced_pps = stats.completed / traced.wall_s;
  t.overhead_pct = (plain_pps - traced_pps) / plain_pps * 100.0;
  t.overflow_edges = static_cast<double>(e2e.quality.overflow);
  emit_layer_metrics(out, t, counts, n);
  if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
    out.invariant("cannot write the trace to " + args.trace_out);
  }
}

}  // namespace perfbench
