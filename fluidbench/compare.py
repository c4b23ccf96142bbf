#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent against change.

    python3 fluidbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the untraced result files run.py keeps in
.bench_out/ (<workload>-seed<n>-trace0.json), one per run. For every
workload and end-to-end metric it prints each side's median and quartiles
and a verdict:

  improved    the change wins in at least 9 of 10 seed pairs (ties count
              for neither) and the medians differ by more than the
              parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, unless every change run reads better than every
              parent run
  no worse    otherwise

It also prints failed_share (failed / attempted) side by side. Results
from different hosts are refused: their host blocks must match.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpus_allowed", "cpu_model", "gemm_kernel",
             "num_threads", "compiler", "build_type")


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def host_of(result):
    return tuple(result["host"].get(k) for k in HOST_KEYS)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, pairs, better, bound):
    p25, pmed, p75 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > (p75 - p25):
        return "improved"
    spread = (p75 - p25) / abs(pmed) if pmed else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if pmed and sign * (cmed - pmed) / abs(pmed) < -bound:
        return "worse"
    return "no worse"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("no trace0 result files found", file=sys.stderr)
        return 2

    hosts = {host_of(r) for side in (parent, change)
             for runs in side.values() for r in runs.values()}
    if len(hosts) != 1:
        print("refusing to compare: results come from different hosts or "
              "builds:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)),
                  file=sys.stderr)
        return 2

    worse = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} "
              f"change runs, {len(seeds)} seed pairs")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            print(f"   failed_share {side}: {fail}/{att} = "
                  f"{fail / att if att else 0:.6f}")
        print(f"   {'metric':26s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s}  verdict")
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()
                  if name in r["metrics"]]
            if not pv or not cv:
                continue
            pairs = [(p_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"]) for s in seeds]
            v = verdict(pv, cv, pairs, m["better"], m["bound"])
            worse |= v == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"   {name:26s} {fmt(quartiles(pv)):>32s} "
                  f"{fmt(quartiles(cv)):>32s}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
