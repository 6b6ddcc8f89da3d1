#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0 --repeat 10
    python3 perfbench/run.py ... --break-check <check>

Builds the program's libraries, pc_trace and the perfbench_run program from
the checkout this script sits in (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs the workload and prints its result as one JSON
object on the last line of stdout.  With --trace 1 the run also writes a
pc-trace-v1 file next to the build and validates it with `pc_trace --check`.
--repeat N runs seeds seed..seed+N-1 and prints the median and quartiles of
every metric.  Exits 0 when every correctness check passed, 1 when one
failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    for needed in ("src/CMakeLists.txt", "tools/pc_trace/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"the program's sources are missing ({needed} not found)")
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_run",
           "pc_trace", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(bdir, workload, seed, seconds, trace, break_check):
    cmd = [str(bdir / "perfbench_run"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    trace_file = None
    if trace:
        out_dir = bdir.parent / "perfbench-out"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{workload}-{seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    if break_check:
        cmd += ["--break-check", break_check]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} seed {seed} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    if trace:
        check = subprocess.run([str(bdir / "pc_trace" / "pc_trace"), "--check",
                                str(trace_file)], stdout=sys.stderr)
        if check.returncode != 0:
            print(f"perfbench: {trace_file} fails pc_trace --check",
                  file=sys.stderr)
            result["correct"] = False
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail(f"metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")
    return result


def summarize(results):
    """Median and quartiles per metric, as statistics.quantiles(n=4) gives
    them; spread is (q3 - q1) / median."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": first["unit"], "q1": q1,
                         "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:40s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
              f"  spread {metrics[name]['spread']:.4f}", file=sys.stderr)
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-batch", "wide-keys", "serving"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--break-check", default="")
    args = parser.parse_args()
    if args.seconds < 1 or args.repeat < 1:
        fail("--seconds and --repeat must be at least 1")

    bdir = build_dir()
    build(bdir)
    results = []
    for i in range(args.repeat):
        results.append(run_once(bdir, args.workload, args.seed + i,
                                args.seconds, bool(args.trace),
                                args.break_check))
        if args.repeat > 1:
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in results[-1]["metrics"].items())
            print(f"seed {args.seed + i}: {values}", file=sys.stderr)
    result = results[0] if args.repeat == 1 else summarize(results)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
