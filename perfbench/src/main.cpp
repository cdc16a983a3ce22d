// rabid_perfbench: runs one BENCHMARK.json workload and prints its
// result as the last stdout line:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1).  perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the workloads and metrics.
//
// Usage: rabid_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                        [--trace-out FILE] [--smoke]
//
// Exit codes: 0 result printed, 2 bad usage or unoptimized build,
// 3 the workload overran its time limit (the watchdog names it).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

/// Hard limit on one workload, below the 180 s a run may take.
constexpr double kWorkloadLimitS = 150.0;

struct Workload {
  const char* name;
  void (*run)(const Args&, Outcome&);
};
constexpr Workload kWorkloads[] = {
    {"table1", perfbench::run_table1},
    {"scale10k_sharded", perfbench::run_scale10k_sharded},
    {"eco_chain", perfbench::run_eco_chain},
    {"serve_mix", perfbench::run_serve_mix},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "rabid_perfbench: %s\n"
               "usage: rabid_perfbench --workload "
               "table1|scale10k_sharded|eco_chain|serve_mix --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--smoke]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

/// One JSON line on stderr describing the build this binary is.
void print_build_info() {
  std::string line = "{\"build_type\":";
  rabid::obs::json::append_escaped(line, PERFBENCH_BUILD_TYPE);
  line += ",\"compiler\":";
  rabid::obs::json::append_escaped(line, PERFBENCH_COMPILER);
  line += ",\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency()) + "}";
  std::fprintf(stderr, "perfbench build: %s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "rabid_perfbench: refusing to run an unoptimized build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed needs an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, &number) || number <= 0.0 || number > 120.0) {
        return usage("--seconds needs a number in (0, 120]");
      }
      args.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace needs 0 or 1");
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }

  print_build_info();
  Outcome out;
  {
    const perfbench::Watchdog watchdog(args.workload, kWorkloadLimitS);
    workload->run(args, out);
  }
  if (out.attempted() == 0) {
    out.invariant("workload " + args.workload + " attempted no plan");
  }
  std::fflush(stderr);
  std::printf("%s\n", out.json().c_str());
  std::fflush(stdout);
  return 0;
}
