#!/usr/bin/env python3
"""Compares two end-to-end benchmark result files against BENCHMARK.json.

  python3 bench/e2e/compare.py BENCHMARK.json A.json B.json

A and B are files written by `run.py --all` (A the parent, B the change).
For every workload and end-to-end metric it prints each side's median and
quartile spread over the sets, the relative change of the median, and a
verdict from the metric's direction and bound:

  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  within      the medians differ by no more than the bound
  unresolved  a side's spread is wider than the bound, and not every run
              of B beats every run of A

A workload whose B runs failed an operation, or lack a metric, is worse.
Exits 1 if any verdict is "worse", 2 on unusable input.
"""

import json
import statistics
import sys


def spread(values, median):
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2 or median == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median)


def verdict(a, b, lower_is_better, bound):
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / abs(ma) if ma else 0.0
    worsening = change if lower_is_better else -change
    if max(spread(a, ma), spread(b, mb)) > bound:
        beats = max(b) < min(a) if lower_is_better else min(b) > max(a)
        return ("better" if beats else "unresolved"), ma, mb, change
    if worsening > bound:
        return "worse", ma, mb, change
    if worsening < -bound:
        return "better", ma, mb, change
    return "within", ma, mb, change


def values(result, workload, metric):
    out = []
    for runs in result["sets"]:
        m = runs.get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            spec = json.load(f)
        with open(argv[2]) as f:
            a = json.load(f)
        with open(argv[3]) as f:
            b = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    worse = 0
    print(f"{'workload':18} {'metric':22} {'A median':>12} {'A iqr':>7} "
          f"{'B median':>12} {'B iqr':>7} {'change':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        b_runs = [runs.get(name) for runs in b["sets"]]
        if any(r is None or not r["correct"] or r["failed"] for r in b_runs):
            print(f"{name:18} {'correct':22} B has failed or missing runs"
                  f"{'':37}  worse")
            worse += 1
        for m in spec["end_to_end"]:
            va, vb = values(a, name, m["name"]), values(b, name, m["name"])
            if not va or not vb:
                print(f"{name:18} {m['name']:22} missing in "
                      f"{'A' if not va else 'B'}{'':52}  "
                      f"{'worse' if not vb else 'unresolved'}")
                worse += not vb
                continue
            v, ma, mb, change = verdict(va, vb, m["better"] == "lower",
                                        m["bound"])
            worse += v == "worse"
            print(f"{name:18} {m['name']:22} {ma:12.5g} "
                  f"{100 * spread(va, ma):6.2f}% {mb:12.5g} "
                  f"{100 * spread(vb, mb):6.2f}% {100 * change:+7.2f}% "
                  f"{100 * m['bound']:5.1f}%  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
