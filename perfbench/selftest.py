#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, briefly, in both modes.

Usage:  python3 perfbench/run.py --selftest          (builds first)
        python3 perfbench/selftest.py --binary PATH  (an existing build)

For each workload BENCHMARK.json names it runs rabid_perfbench --smoke
with --trace 0 and --trace 1 and checks that
  * the last stdout line is a result with correct/attempted/failed/metrics,
    attempted >= 1 and correct == true;
  * the metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) lists;
  * the chrome trace parses, and on table1 and scale10k_sharded the stage
    spans cover at least 95% of every flow span.
It also checks that an unknown workload is refused.  Exit code 0 = pass.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import check_result  # noqa: E402 (lives next to this file)

STAGES = ("route.stage1", "route.stage2", "buffer.stage3", "core.stage4")
COVERAGE_WORKLOADS = ("table1", "scale10k_sharded")
MIN_COVERAGE = 0.95
TIMEOUT_S = 170


def flow_coverage(trace):
    """Smallest share of a core.flow span its stage spans cover."""
    flows, covered = {}, {}
    for event in trace["traceEvents"]:
        if event.get("ph") != "X":
            continue
        fields = dict(part.split("=", 1) for part in event["cat"].split())
        plan = fields["plan"]
        if event["name"] == "core.flow":
            flows[plan] = event["dur"]
        elif event["name"] in STAGES and fields["parent"] == "core.flow":
            covered[plan] = covered.get(plan, 0.0) + event["dur"]
    if not flows:
        return None
    return min(covered.get(plan, 0.0) / dur for plan, dur in flows.items()
               if dur > 0)


def check_run(binary, spec, workload, trace, tmp):
    """Runs one smoke invocation; returns a list of problems."""
    trace_path = Path(tmp) / f"{workload}.trace.json"
    cmd = [str(binary), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if trace:
        cmd += ["--trace-out", str(trace_path)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    line = lines[-1] if lines else ""
    error = check_result(line, trace, spec)
    if error:
        return [f"{where}: {error}"]
    result = json.loads(line)
    problems = []
    if result["correct"] is not True:
        problems.append(f"{where}: correct is {result['correct']}; "
                        f"stderr: {done.stderr[-500:]}")
    if not trace:
        zeros = [k for k, m in result["metrics"].items() if m["value"] == 0]
        if zeros:
            problems.append(f"{where}: end-to-end metrics read 0: {zeros}")
        return problems
    try:
        parsed = json.loads(trace_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        problems.append(f"{where}: trace unreadable: {e}")
        return problems
    if workload in COVERAGE_WORKLOADS:
        coverage = flow_coverage(parsed)
        if coverage is None or coverage < MIN_COVERAGE:
            problems.append(f"{where}: stage spans cover {coverage} of a "
                            f"flow span (needs >= {MIN_COVERAGE})")
    return problems


def run(binary, root):
    spec = json.loads((Path(root) / "BENCHMARK.json").read_text())
    problems = []
    with tempfile.TemporaryDirectory(dir=Path(binary).parent) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                found = check_run(binary, spec, workload, trace, tmp)
                status = "FAIL" if found else "ok"
                print(f"selftest: {workload} --trace {trace}: {status}",
                      file=sys.stderr, flush=True)
                problems += found
    bad = subprocess.run([str(binary), "--workload", "no_such_workload",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=TIMEOUT_S)
    if bad.returncode == 0:
        problems.append("an unknown workload was not refused")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print(f"selftest: {'FAILED' if problems else 'passed'}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                               .parent.parent))
    args = parser.parse_args()
    sys.exit(run(args.binary, args.root))


if __name__ == "__main__":
    main()
