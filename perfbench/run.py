#!/usr/bin/env python3
"""Run one benchmark workload of the o1mem simulator and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. It builds perfbench/pass.exe with
dune into .bench_build, then runs passes of the workload for about S
seconds. Each pass is a fresh process (see pass.ml): it generates the
workload's inputs from the seed, sets up, runs the timed closed loop and
checks its outputs. Virtual metrics must be identical in every pass of
one seed, which is checked. Host times are CPU times. They are still
noisy on a shared machine, whose memory system other tenants load: a
memory-bound stretch of code can run 2x slower or faster from one
second to the next, and its average speed drifts by up to 1.5x over
minutes. Each pass times the same ~100 segments of its loop, so the
loop time is the sum over segments of each segment's lower-quartile
time over the passes. A quartile, unlike a minimum, does not drift with
the number of passes. Set-up time is the lower quartile of the passes'
set-up times. Before each pass a fixed reference job runs (pass.ml);
loop and set-up times are scaled by REF_S over the lower quartile of
its CPU times, which cancels much of the slow drift. Other host metrics
are medians.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
including sim.trace_overhead, the share of ops/s that tracing costs; it
also checks that tracing leaves every virtual metric unchanged.

Every metric is printed as "name value unit"; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}. A failed
output check prints why on stderr, reports no numbers and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PASS_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "pass.exe")
MIN_PASSES = 3  # per kind of pass (untraced, traced)
PASS_TIMEOUT_S = 120
# About the CPU seconds the reference job takes on a 2-vCPU x86-64 KVM
# guest; host times are reported as if the host ran it in REF_S.
REF_S = 0.4


class BenchError(Exception):
    pass


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/pass.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout)


def run_pass(workload, seed=0, trace=0):
    proc = subprocess.run(
        [PASS_EXE, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Rounds of one reference job and an untraced pass, or an untraced
    and a traced pass, until the next round would overrun `seconds` (at
    least MIN_PASSES rounds). Returns the passes and the reference
    job's CPU times."""
    kinds = (0, 1) if trace else (0,)
    passes, refs = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        refs.append(run_pass("reference")["reference_cpu_s"])
        for kind in kinds:
            passes.append(run_pass(workload, seed, kind))
        longest = max(longest, time.monotonic() - t0)
        spent = time.monotonic() - start
        if len(refs) >= MIN_PASSES and spent + longest > seconds:
            return passes, refs


def check(passes):
    errors = [e for p in passes for e in p["errors"]]
    first = passes[0]["virtual"]
    for p in passes[1:]:
        if p["virtual"] != first:
            diff = sorted(k for k in set(first) | set(p["virtual"])
                          if first.get(k) != p["virtual"].get(k))
            kind = "traced and untraced" if p["traced"] else "untraced"
            errors.append(f"virtual metrics differ between {kind} passes "
                          f"of one seed: {', '.join(diff)}")
            break
    return sorted(set(errors))


def median(passes, section, name):
    return statistics.median(p[section][name] for p in passes)


def lower_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def ops_per_s(passes):
    """Ops over the loop time made of each segment's lower-quartile time."""
    segs = [p["host"]["seg_cpu_s"] for p in passes]
    if len({len(s) for s in segs}) != 1:
        raise BenchError("passes cut the timed loop into different segments")
    return passes[0]["virtual"]["ops"] / sum(map(lower_quartile, zip(*segs)))


def end_to_end(passes, refs):
    # Host times scaled to a host on which the reference job takes REF_S.
    # The loop time is a lower quartile, so the reference's is too.
    speed = lower_quartile(refs) / REF_S
    v = passes[0]["virtual"]
    return {
        "ops_per_s": ops_per_s(passes) * speed,
        "setup_s": lower_quartile([p["host"]["setup_s"] for p in passes]) / speed,
        "alloc_words_per_op": median(passes, "host", "alloc_words_per_op"),
        "peak_heap_mib": median(passes, "host", "peak_heap_mib"),
        "vcycles_per_op": v["vcycles"] / v["ops"],
        "op_vcycles_p99": v["op_vcycles_p99"],
        "op_vcycles_tail_mean": v["op_vcycles_tail_mean"],
    }


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    v = passes[0]["virtual"]
    metrics = {name: median(traced, "layers", name)
               for name in traced[0]["layers"]}
    metrics["sim.trace_overhead"] = 1.0 - ops_per_s(traced) / ops_per_s(plain)
    for name in ("host.minor_gcs_per_kop", "host.major_gcs_per_kop"):
        metrics[name] = median(plain, "host", name)
    metrics["op_vcycles_p50"] = v["op_vcycles_p50"]
    metrics["op_vcycles_samples"] = v["op_vcycles_samples"]
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    build()
    passes, refs = run_passes(args.workload, args.seed, args.seconds,
                              args.trace)
    attempted = sum(p["virtual"]["ops"] for p in passes)
    failed = sum(p["virtual"]["failed"] for p in passes)
    errors = check(passes)
    if errors:
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    values = per_layer(passes) if args.trace else end_to_end(passes, refs)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} "
                         f"do not match BENCHMARK.json {section}")
    v = passes[0]["virtual"]
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{v['ops']} ops each, {v['op_vcycles_samples']} latency samples")
    if not args.trace:
        print(f"failed_op_frac {failed / attempted} ratio")
        if "recover_vcycles" in v:
            print(f"recover_vcycles {v['recover_vcycles']} cycles")
    for name in sorted(values):
        print(f"{name} {values[name]} {units[name]}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in sorted(values)}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
