// fuzz_flow — fuzzed differential testing of the full RABID flow.
//
// Each instance generates a seeded random circuit (circuits/
// random_circuit.hpp), runs the four-stage flow with a region-sharded
// stage 2 once serially and once on a worker pool, audits both runs
// after every stage with the independent SolutionAuditor, and diffs the
// two solutions node for node.  Any difference or audit violation fails
// the instance; the failing seeds replay the exact instance on any
// machine.
//
// Unless --no-robustness is given, every seed additionally runs the
// hardening sweep (fuzz::run_robustness): the same circuit re-planned
// under mid-run deadlines and resumed from each stage's checkpoint,
// with every result audited and the resumes diffed bit for bit against
// the straight run.
//
//   fuzz_flow --instances 200                 # the acceptance sweep
//   fuzz_flow --time-budget 60 --json r.json  # CI smoke artifact
//   fuzz_flow --seed 1234 --instances 1 --verbose
//
// Flags:
//   --instances N      instances to run (default 200)
//   --seed S           first seed; instance i uses S + i (default 1)
//   --threads-a N      worker threads for run A (default 1)
//   --threads-b N      worker threads for run B (default 4)
//   --time-budget SEC  stop starting new instances after SEC seconds
//                      (0 = no budget; default 0)
//   --json F           write a machine-readable report to F (always;
//                      failures embed the full audit reports + diffs)
//   --no-robustness    skip the per-seed deadline/checkpoint sweep
//   --eco              per seed, also run the incremental-vs-scratch
//                      ECO sweep (fuzz::run_eco): random perturbations
//                      replanned incrementally, audited each step, and
//                      held within epsilon of a from-scratch plan
//   --eco-steps N      perturbation steps per ECO instance (default 4)
//   --eco-epsilon X    ECO equivalence bound (default 0.30)
//   --scratch DIR      writable directory for checkpoint scratch space
//                      (default: the system temp directory)
//   --verbose          print every instance, not just failures

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/differential.hpp"

namespace {

struct Args {
  std::int64_t instances = 200;
  std::uint64_t seed = 1;
  std::int32_t threads_a = 1;
  std::int32_t threads_b = 4;
  double time_budget_s = 0.0;
  std::string json;
  std::string scratch;
  bool robustness = true;
  bool eco = false;
  std::int32_t eco_steps = 4;
  double eco_epsilon = 0.30;
  bool verbose = false;
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: fuzz_flow [--instances N] [--seed S]\n"
               "       [--threads-a N] [--threads-b N]\n"
               "       [--time-budget SEC] [--json F] [--no-robustness]\n"
               "       [--eco] [--eco-steps N] [--eco-epsilon X]\n"
               "       [--scratch DIR] [--verbose]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--instances") {
      a.instances = std::atoll(value());
      if (a.instances < 1) usage("--instances expects a positive count");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--threads-a") {
      a.threads_a = std::atoi(value());
      if (a.threads_a < 0) usage("--threads-a expects >= 0");
    } else if (flag == "--threads-b") {
      a.threads_b = std::atoi(value());
      if (a.threads_b < 0) usage("--threads-b expects >= 0");
    } else if (flag == "--time-budget") {
      a.time_budget_s = std::atof(value());
      if (a.time_budget_s < 0) usage("--time-budget expects >= 0 seconds");
    } else if (flag == "--json") {
      a.json = value();
    } else if (flag == "--no-robustness") {
      a.robustness = false;
    } else if (flag == "--eco") {
      a.eco = true;
    } else if (flag == "--eco-steps") {
      a.eco_steps = std::atoi(value());
      if (a.eco_steps < 1) usage("--eco-steps expects a positive count");
    } else if (flag == "--eco-epsilon") {
      a.eco_epsilon = std::atof(value());
      if (a.eco_epsilon <= 0) usage("--eco-epsilon expects > 0");
    } else if (flag == "--scratch") {
      a.scratch = value();
    } else if (flag == "--verbose") {
      a.verbose = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(nullptr);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

void write_json(const std::string& path, const Args& args,
                std::int64_t ran, double elapsed_s,
                const std::vector<rabid::fuzz::FuzzResult>& failures,
                const std::vector<std::string>& robustness_failures,
                std::int64_t deadline_expirations,
                const std::vector<std::string>& eco_failures,
                std::int64_t eco_replanned) {
  std::ofstream out(path);
  if (!out) usage("cannot open --json file");
  auto string_list = [&out](const std::vector<std::string>& items) {
    out << "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out << (i == 0 ? "\n    " : ",\n    ") << '"';
      for (const char c : items[i]) {
        if (c == '"' || c == '\\') out << '\\';
        if (c == '\n') {
          out << "\\n";
        } else {
          out << c;
        }
      }
      out << '"';
    }
    out << (items.empty() ? "]" : "\n  ]");
  };
  out << "{\n  \"instances_requested\": " << args.instances
      << ",\n  \"instances_run\": " << ran
      << ",\n  \"seed0\": " << args.seed << ",\n  \"threads\": ["
      << args.threads_a << ", " << args.threads_b << "]"
      << ",\n  \"elapsed_s\": " << elapsed_s
      << ",\n  \"robustness\": " << (args.robustness ? "true" : "false")
      << ",\n  \"deadline_expirations\": " << deadline_expirations
      << ",\n  \"robustness_failures\": ";
  string_list(robustness_failures);
  out << ",\n  \"eco\": " << (args.eco ? "true" : "false")
      << ",\n  \"eco_replanned\": " << eco_replanned
      << ",\n  \"eco_failures\": ";
  string_list(eco_failures);
  out << ",\n  \"failures\": " << failures.size()
      << ",\n  \"failed\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const rabid::fuzz::FuzzResult& f = failures[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"seed\": " << f.seed
        << ", \"nets\": " << f.nets << ", \"buffers\": " << f.buffers
        << ", \"solution_differences\": " << f.diff.total
        << ", \"diff\": [";
    for (std::size_t k = 0; k < f.diff.entries.size(); ++k) {
      if (k > 0) out << ", ";
      out << '"';
      for (const char c : f.diff.entries[k]) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
      }
      out << '"';
    }
    out << "], \"audit_a\": ";
    f.audit_a.write_json(out);
    out << ", \"audit_b\": ";
    f.audit_b.write_json(out);
    out << "}";
  }
  out << (failures.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  rabid::fuzz::DifferentialOptions options;
  options.threads_a = args.threads_a;
  options.threads_b = args.threads_b;

  std::string scratch = args.scratch;
  if (args.robustness) {
    if (scratch.empty()) {
      std::error_code ec;
      scratch = std::filesystem::temp_directory_path(ec).string();
      if (ec || scratch.empty()) scratch = ".";
    }
    scratch += "/fuzz-flow-" + std::to_string(args.seed);
    std::error_code ec;
    std::filesystem::create_directories(scratch, ec);
    if (ec) usage(("cannot create scratch dir " + scratch).c_str());
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  rabid::fuzz::EcoFuzzOptions eco_options;
  eco_options.steps = args.eco_steps;
  eco_options.epsilon = args.eco_epsilon;

  std::vector<rabid::fuzz::FuzzResult> failures;
  std::vector<std::string> robustness_failures;
  std::vector<std::string> eco_failures;
  std::int64_t deadline_expirations = 0;
  std::int64_t eco_replanned = 0;
  std::int64_t ran = 0;
  for (; ran < args.instances; ++ran) {
    if (args.time_budget_s > 0.0 && elapsed() > args.time_budget_s) break;
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(ran);
    rabid::fuzz::FuzzResult result =
        rabid::fuzz::run_differential(seed, options);
    if (args.robustness) {
      const rabid::fuzz::RobustnessResult rob =
          rabid::fuzz::run_robustness(seed, scratch, options);
      if (rob.deadline_expired) ++deadline_expirations;
      if (!rob.ok()) {
        std::printf("FAIL %s\n", rob.describe().c_str());
        robustness_failures.push_back(rob.describe());
      }
    }
    if (args.eco) {
      const rabid::fuzz::EcoFuzzResult eco =
          rabid::fuzz::run_eco(seed, eco_options);
      eco_replanned += eco.replanned;
      if (!eco.ok()) {
        std::printf("FAIL %s\n", eco.describe().c_str());
        eco_failures.push_back(eco.describe());
      }
    }
    if (!result.ok()) {
      std::printf("FAIL %s\n", result.describe().c_str());
      failures.push_back(std::move(result));
    } else if (args.verbose) {
      std::printf("ok   seed %llu: %zu nets, %lld buffers, identical + "
                  "audit-clean\n",
                  static_cast<unsigned long long>(seed), result.nets,
                  static_cast<long long>(result.buffers));
    } else if ((ran + 1) % 25 == 0) {
      std::printf("... %lld/%lld instances, %zu failures, %.1fs\n",
                  static_cast<long long>(ran + 1),
                  static_cast<long long>(args.instances), failures.size(),
                  elapsed());
    }
  }

  const double total_s = elapsed();
  if (args.robustness) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);  // best-effort cleanup
  }
  std::printf("fuzz: %lld instances (threads %d vs %d), %zu failures, "
              "%zu robustness failures, %lld deadline expirations, %.1fs\n",
              static_cast<long long>(ran), args.threads_a, args.threads_b,
              failures.size(), robustness_failures.size(),
              static_cast<long long>(deadline_expirations), total_s);
  if (args.eco) {
    std::printf("eco:  %zu failures, %lld nets replanned across %lld "
                "instances\n",
                eco_failures.size(), static_cast<long long>(eco_replanned),
                static_cast<long long>(ran));
  }
  if (!args.json.empty()) {
    write_json(args.json, args, ran, total_s, failures, robustness_failures,
               deadline_expirations, eco_failures, eco_replanned);
    std::printf("wrote report to %s\n", args.json.c_str());
  }
  return failures.empty() && robustness_failures.empty() &&
                 eco_failures.empty()
             ? 0
             : 1;
}
