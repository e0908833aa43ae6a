#!/usr/bin/env python3
"""Builds the stank benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

--trace 0 runs the untraced binary and reports every end-to-end metric of
BENCHMARK.json. --trace 1 runs one untraced rep, then the traced binary on the
same seed, checks that both produce the same determinism digest and that the
ledger's self times close against the traced wall time within 5%, and reports
every per-layer metric. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 only
if the run's correctness verdict passed.

The benchmark is built from the library sources under src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with CMake.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
CLOSURE_TOLERANCE = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", out, "-j", jobs], "build")
    return out


def step(cmd, what):
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{what} failed: {e}")
    if res.returncode != 0:
        log(res.stdout[-4000:])
        fail(f"{what} failed with exit code {res.returncode}")


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def run_binary(path, args):
    """Runs one benchmark binary and returns its JSON report."""
    try:
        res = subprocess.run([path] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{os.path.basename(path)} did not finish: {e}")
    if res.stderr:
        log(res.stderr.rstrip())
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(path)} printed no report (exit code {res.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{os.path.basename(path)} printed a malformed report: {lines[-1][:200]}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_names(printed, declared, what):
    """The names a binary prints must be exactly the names BENCHMARK.json lists."""
    missing = sorted(set(declared) - set(printed))
    extra = sorted(set(printed) - set(declared))
    if missing or extra:
        fail(f"{what} names differ from BENCHMARK.json: missing {missing}, undeclared {extra}")


def metrics_of(values, entries):
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    out = build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    untraced = os.path.join(out, "stank_perf")

    if args.trace == 0:
        rep = run_binary(untraced, common + ["--seconds", str(args.seconds)])
        check_names(rep["end_to_end"], [e["name"] for e in spec["end_to_end"]], "end-to-end")
        values = rep["end_to_end"]
        entries = spec["end_to_end"]
        correct = rep["correct"]
        why = rep["why"]
    else:
        # One untraced rep gives the reference digest and wall time per op.
        base = run_binary(untraced, common + ["--seconds", "0", "--max-reps", "1"])
        rep = run_binary(os.path.join(out, "stank_perf_traced"),
                         common + ["--seconds", str(args.seconds)])
        values = dict(rep["per_layer"])
        closure = values.pop("closure_error")
        # Both first reps start cold, so they compare like with like.
        base_wall = base["rep_wall_ns_per_op"][0]
        values["trace_overhead_frac"] = (
            rep["rep_wall_ns_per_op"][0] / base_wall - 1.0 if base_wall > 0 else 0.0)
        check_names(values, [e["name"] for e in spec["per_layer"]], "per-layer")
        entries = spec["per_layer"]
        correct = rep["correct"] and base["correct"]
        why = rep["why"] or base["why"]
        if correct and rep["digest"] != base["digest"]:
            correct = False
            why = f"traced digest {rep['digest']} != untraced digest {base['digest']}"
        if correct and abs(closure) > CLOSURE_TOLERANCE:
            correct = False
            why = f"ledger does not close: self times + unattributed off by {closure:.1%}"

    log(f"perfbench: {args.workload} seed {args.seed}: {rep['reps']} reps, "
        f"digest {rep['digest']}, {'correct' if correct else 'INCORRECT: ' + why}; "
        f"per rep: set-up s {rep['rep_setup_s']}, wall ns/op {rep['rep_wall_ns_per_op']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(rep["attempted"]),
        "failed": int(rep["failed"]),
        "metrics": metrics_of(values, entries),
    }))
    return 0 if correct else 1


def selftest():
    """Checks the ledger arithmetic and that both binaries print exactly the
    metric names BENCHMARK.json declares."""
    spec = load_spec()
    out = build()
    res = subprocess.run([os.path.join(out, "ledger_selftest")], check=False)
    if res.returncode != 0:
        fail("ledger self-test failed")
    rep = run_binary(os.path.join(out, "stank_perf_traced"),
                     ["--workload", "io-shared-faults", "--seed", "1", "--seconds", "0",
                      "--max-reps", "1"])
    check_names(rep["end_to_end"], [e["name"] for e in spec["end_to_end"]], "end-to-end")
    layer = set(rep["per_layer"]) - {"closure_error"} | {"trace_overhead_frac"}
    check_names(layer, [e["name"] for e in spec["per_layer"]], "per-layer")
    if not rep["correct"]:
        fail(f"io-shared-faults verdict failed: {rep['why']}")
    log("perfbench self-test: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
