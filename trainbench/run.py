#!/usr/bin/env python3
"""Plexus training benchmark: build the program from source, run one workload.

    python3 trainbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 trainbench/run.py --smoke

Run from the root of a source checkout. The first call configures and builds
trainbench/ (CMakeLists.txt) into .bench_build/; later calls rebuild only what
changed. A run prints a host line and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 1` runs the traced
binary, which reports the per-layer metrics and writes a span trace under
.bench_out/. `--smoke` runs every workload at tiny sizes, traced and untraced,
and checks each result against BENCHMARK.json: the benchmark's own test.
See trainbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("products-sparse", "reddit-dense", "papers-stream")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"trainbench: {msg}", file=sys.stderr)
    sys.exit(code)


def pinned_env():
    """The process environment without any PLEXUS_* knob, so every run uses
    the program's defaults (backend, aggregation, wire, threads, SIMD, ...)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PLEXUS_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Plexus sources under {ROOT / 'src'}; run from a full source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "trainbench", "trainbench_traced"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd[:2])} exited with {rc}")


def run_binary(workload, seed, seconds, trace, smoke=False):
    exe = BUILD / ("trainbench_traced" if trace else "trainbench")
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", str(OUT)]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           env=pinned_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return p.returncode, p.stdout


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        fail(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}", 1)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_binary(workload, 1, 1, trace, smoke=True)
            lines = out.strip().splitlines()
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line (exit {rc})")
                continue
            got = set(result["metrics"])
            if rc != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: exit {rc}, result {lines[-1][:200]}")
            if got != want[trace]:
                problems.append(f"{label}: metrics missing {sorted(want[trace] - got)}, "
                                f"extra {sorted(got - want[trace])}")
            print(f"{label}: exit {rc}, correct {result['correct']}, "
                  f"attempted {result['attempted']}, {len(got)} metrics")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload traced and untraced, then exit")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    build()
    if args.smoke:
        return smoke()
    rc, out = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
