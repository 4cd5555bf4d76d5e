#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e).

Run from anywhere; paths resolve against the repository root.

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line on stdout is the JSON result.
  python3 bench/e2e/run.py --all [--seed N] [--sets K] [--seconds S]
                           [--traced] [--out FILE]
      K sets of every workload in BENCHMARK.json, each run in a fresh
      process, round-robin across workloads so slow stretches of the host
      hit every workload; --traced adds one traced run per workload and
      writes its Chrome trace next to FILE. Compare two such files with
      compare.py.
  python3 bench/e2e/run.py --smoke
      Every workload at smoke size, checked against BENCHMARK.json.

The first call configures and builds the benchmark (CMake, Release) into
.bench_build/e2e under the repository root; later calls rebuild only what
changed. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
BENCHMARK = ROOT / "BENCHMARK.json"


def build():
    """Configures (once) and builds e2e_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "e2e_bench"


def run_one(binary, workload, seed, seconds, trace, trace_out=None):
    """One benchmark process; returns its --json-out document."""
    out = BUILD / "runs" / f"{workload}-{seed}-{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--json-out", str(out)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} (trace {trace}) exited "
                           f"{proc.returncode}")
    with open(out) as f:
        return json.load(f)


def run_all(args):
    binary = build()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(BENCHMARK) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    result = {"benchmark": "bench/e2e", "seed": args.seed,
              "seconds": args.seconds, "sets": [], "traced": {}, "detail": {}}
    for k in range(args.sets):
        runs = {}
        for name in names:
            print(f"[run] set {k + 1}/{args.sets}: {name}", file=sys.stderr)
            doc = run_one(binary, name, args.seed, args.seconds, 0)
            runs[name] = dict(doc["result"], host=doc["host"],
                              rep_wall_ms=doc["rep_wall_ms"])
            if doc["detail"]:
                result["detail"][name] = doc["detail"]
        result["sets"].append(runs)
    if args.traced:
        for name in names:
            print(f"[run] traced: {name}", file=sys.stderr)
            trace_out = Path(args.out).with_name(f"trace_{name}.json")
            doc = run_one(binary, name, args.seed, args.seconds, 1, trace_out)
            result["traced"][name] = doc["result"]
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"[run] wrote {args.out}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=str(BUILD / "BENCH_e2e.json"))
    args, _ = parser.parse_known_args()
    try:
        if args.all:
            run_all(args)
            return 0
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    # A single run hands its arguments to e2e_bench unchanged.
    forward = ["--smoke", str(BENCHMARK)] if args.smoke else sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, [str(binary), *forward])


if __name__ == "__main__":
    sys.exit(main())
