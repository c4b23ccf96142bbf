#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 fluidbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--ha-rates low,ref,high]

Run from the repository root. The first call configures and builds
fluidbench (CMake, Release) into $CARGO_TARGET_DIR or .bench_build; later
calls only re-check the build. The benchmark's last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The full
result, with its host block, is kept in .bench_out/. A traced run
(--trace 1) first makes the untraced run of the same workload and seed if
.bench_out/ has none, then reports the tracing overhead against it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Each run must end well within 180 s.
RUN_TIMEOUT_S = 170
# The benchmark process runs pinned to this many CPUs. On the 4-vCPU
# reference VM, runs spread over all four vCPUs met 5-25% hypervisor steal
# and swung up to 3x in throughput between consecutive runs. Pinned to two
# CPUs, each run settled into one of two modes for its whole length
# (ht_compute at about 3.8k or 6.5k req/s). On one CPU neither showed.
BENCH_CPUS = 1
# The first build of a checkout may take up to 900 s.
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"[fluidbench] {msg}", file=sys.stderr, flush=True)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "fluidbench")
    exe = os.path.join(build_dir, "fluidbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "fluidbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return exe


def result_path(out_dir, workload, seed, trace):
    return os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")


def run_once(exe, args, trace, out_dir):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out_dir]
    if args.ha_rates:
        cmd += ["--ha-rates", args.ha_rates]
    cpus = sorted(os.sched_getaffinity(0))[:BENCH_CPUS]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def overhead(out_dir, args):
    """Relative change of each end-to-end metric, traced vs untraced."""
    with open(result_path(out_dir, args.workload, args.seed, 0)) as f:
        plain = json.load(f)["metrics"]
    path = result_path(out_dir, args.workload, args.seed, 1)
    with open(path) as f:
        traced = json.load(f)
    rel = {}
    for name, m in traced["end_to_end"].items():
        base = plain.get(name, {}).get("value")
        if base:
            rel[name] = (m["value"] - base) / base
    traced["trace_overhead"] = rel
    with open(path, "w") as f:
        json.dump(traced, f)
    for name in ("throughput_rps", "latency_p50_ms", "latency_p99_ms"):
        if name in rel:
            log(f"tracing overhead {name}: {rel[name]:+.1%}")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ha-rates", default="")
    args = p.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.trace and not os.path.exists(
                result_path(out_dir, args.workload, args.seed, 0)):
            log("no untraced result for this workload and seed; running it "
                "first for the overhead figure")
            code, _ = run_once(exe, args, 0, out_dir)
            if code != 0:
                return code
        code, result = run_once(exe, args, args.trace, out_dir)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if code != 0:
        return code
    if args.trace:
        overhead(out_dir, args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
