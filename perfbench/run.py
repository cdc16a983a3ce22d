#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

A run builds perfbench/ (an optimized CMake build in .bench_build/, or
in $CARGO_TARGET_DIR when set), runs one workload of BENCHMARK.json in
rabid_perfbench, and prints the workload's result as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  Build output,
failure reasons and the run's provenance (host, build, source revision,
load) go to stderr; the provenance and result are also appended to
<build dir>/results.jsonl.  --trace 1 also writes a chrome-trace JSON to
<build dir>/traces/.

Exit codes: 0 result printed; 1 the result is malformed; 2 bad usage,
missing sources or a failed build; 3 the workload overran its time limit.
--selftest runs every workload briefly and checks it (selftest.py).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
# A run must end within 180 s; the binary's own watchdog fires at 150 s.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures (once) and builds the optimized binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"planner sources not found under {ROOT / 'src'}; "
            "run from the root of a full checkout")
        sys.exit(2)
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in ("Release", "RelWithDebInfo"):
        log(f"refusing to run a '{build_type}' build in {out}; "
            "delete it to reconfigure as Release")
        sys.exit(2)
    run_build_step(["cmake", "--build", str(out), "--target",
                    "rabid_perfbench", "-j", str(os.cpu_count() or 1)])
    return out / "rabid_perfbench"


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"build step timed out after {BUILD_TIMEOUT_S} s: "
            f"{' '.join(cmd)}")
        sys.exit(2)
    if done.returncode != 0:
        log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
        sys.exit(2)


def cpu_info():
    model, mhz = None, None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and model is None:
                model = value.strip()
            elif key == "cpu MHz" and mhz is None:
                mhz = float(value)
    except OSError:
        pass
    return model or platform.processor() or "unknown", mhz


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def provenance(binary_build):
    model, mhz = cpu_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_mhz": mhz,
        "load_avg": list(os.getloadavg()),
        "revision": source_revision(),
        **binary_build,
    }


def run_binary(binary, argv, timeout_s, workload):
    """Runs rabid_perfbench; returns (stdout, build info) or exits 3."""
    proc = subprocess.Popen([str(binary), *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"workload {workload} did not finish within {timeout_s:.0f} s")
        sys.exit(3)
    build_info = {}
    for line in stderr.splitlines():
        if line.startswith("perfbench build: "):
            build_info = json.loads(line[len("perfbench build: "):])
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0:
        log(f"workload {workload} exited with code {proc.returncode}")
        sys.exit(proc.returncode if proc.returncode > 0 else 3)
    return stdout, build_info


def check_result(line, trace, spec):
    """Validates a result line against BENCHMARK.json (`spec`, or None to
    check only its shape); returns an error message or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"result is not JSON ({e}): {line[:200]!r}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result has keys {sorted(result)}"
    if not isinstance(result["correct"], bool) or result["attempted"] < 1:
        return "result needs a boolean 'correct' and attempted >= 1"
    if spec is None:
        return None
    want = {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if got != want:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload briefly and check it")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        sys.path.insert(0, str(HERE))
        sys.dont_write_bytecode = True  # leave no __pycache__ behind
        import selftest  # noqa: E402 (lives next to this file)
        sys.exit(selftest.run(binary, ROOT))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        argv += ["--trace-out",
                 str(traces / f"{args.workload}-seed{args.seed}.json")]
    stdout, build_info = run_binary(binary, argv, RUN_TIMEOUT_S,
                                    args.workload)
    lines = stdout.strip().splitlines()
    line = lines[-1] if lines else ""
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    error = check_result(line, bool(args.trace), spec)
    if error:
        log(f"workload {args.workload}: {error}")
        sys.exit(1)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(build_info),
              "result": json.loads(line)}
    log("provenance: " + json.dumps(record["provenance"]))
    with open(build_dir() / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(line, flush=True)


if __name__ == "__main__":
    main()
