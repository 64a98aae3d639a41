#!/usr/bin/env python3
"""The repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload cold-rmat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (which compiles src/)
into $CARGO_TARGET_DIR, default `.bench_build`, runs the workload in its own
process, checks its outputs, prints every metric with its unit, and prints
as the last line of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits non-zero when an output check fails, and exits 2
without a result when the checkout holds no sources to build.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-rmat", "cold-ws-mp", "stream-ws")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Metrics printed in the table that BENCHMARK.json does not list.
EXTRA_UNITS = {"error_rate": "ratio"}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def units(spec):
    table = dict(EXTRA_UNITS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        table[metric["name"]] = metric["unit"]
    return table


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark; returns the executable path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die("no sources to build: run from the root of a full checkout")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and \
            not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(out, "spinner_perfbench")


def run_workload(exe, workload, seed, seconds, trace, size="full",
                 inject=""):
    """Runs one workload process; returns (exit code, report or None)."""
    out = build_dir()
    work = tempfile.mkdtemp(prefix="run-%s-%d-" % (workload, seed), dir=out)
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--work-dir=" + work, "--size=" + size,
           "--trace-out=" + os.path.join(
               traces, "%s-seed%d-%s.jsonl" % (workload, seed, size))]
    if inject:
        cmd.append("--inject=" + inject)
    # Own process group, so forked shard workers go down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: %s exited %d without a report" %
              (workload, proc.returncode), file=sys.stderr)
        return proc.returncode or 1, None


def pin_failures(report, pins, workload, seed, size):
    """Differences from the values pinned for this seed, if any are."""
    pin = pins.get(size, {}).get(workload)
    meta = report["meta"]
    if not pin or pin["seed"] != seed or \
            ("events" in pin and meta.get("events") != pin["events"]):
        return []  # the stream's length follows --seconds
    failures = []
    for key in ("phi", "rho"):
        got = report["metrics"].get(key)
        if got is None or not math.isclose(got, pin[key], rel_tol=1e-12):
            failures.append("%s=%r, pinned %r" % (key, got, pin[key]))
    for key in ("checksum", "drained_checksum"):
        if key in pin and meta.get(key) != pin[key]:
            failures.append("%s=%s, pinned %s" % (key, meta.get(key),
                                                  pin[key]))
    return failures


def evaluate(spec, pins, report, code, workload, seed, trace, size):
    """Builds the result line; returns (result, list of problems)."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    table = units(spec)
    if report is None:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}, ["the workload aborted"]
    problems = ["check: " + c for c in report["checks"]]
    problems += ["error: " + e for e in report["errors"]]
    if not report["complete"]:
        problems.append("the workload did not run to its end")
    if code != 0 and not problems:
        problems.append("exit code %d" % code)
    problems += ["pin: " + p for p in
                 pin_failures(report, pins, workload, seed, size)]
    metrics = {}
    for name in names:
        value = report["metrics"].get(name)
        if value is None or not math.isfinite(value):
            problems.append("metric %s missing" % name)
            continue
        if not trace and value <= 0:
            problems.append("metric %s is %r" % (name, value))
        metrics[name] = {"value": value, "unit": table[name]}
    correct = not [p for p in problems if not p.startswith("error: ")]
    failed = report["failed"] + (0 if report["complete"] else 1)
    return {"correct": correct,
            "attempted": max(1, report["attempted"]),
            "failed": failed,
            "metrics": metrics}, problems


def print_table(spec, report, result):
    table = units(spec)
    meta = report["meta"] if report else {}
    print("workload %s seed %s size %s | nproc %s | %s | %s %s | "
          "SPINNER_SIMD=%s | cpu steal %s%%" % (
              meta.get("workload"), meta.get("seed"), meta.get("size"),
              meta.get("nproc"), meta.get("cpu_model"), meta.get("compiler"),
              meta.get("build_type"), meta.get("spinner_simd"),
              meta.get("cpu_steal_pct", "-")))
    print("input: vertices %s arcs %s edges %s text_bytes %s events %s "
          "reps %s" % (meta.get("vertices"), meta.get("arcs"),
                       meta.get("input_edges"),
                       meta.get("input_text_bytes", "-"),
                       meta.get("events", "-"), meta.get("reps", "-")))
    if report is None:
        return
    values = dict(report["metrics"])
    values["error_rate"] = result["failed"] / result["attempted"]
    for name in sorted(values):
        if name in table:
            print("  %-30s %16.6f %s" % (name, values[name], table[name]))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-test")
    parser.add_argument("--self-test", action="store_true",
                        help="exercise every check and metric at tiny size")
    args = parser.parse_args(argv)
    # A terminated run still stops its workload process (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found next to perfbench/")
    spec = load_json(spec_path)
    pins = load_json(os.path.join(HERE, "pins.json"))
    exe = build()
    if args.self_test:
        from self_test import self_test  # perfbench/self_test.py
        return self_test(exe, spec, pins)
    if not args.workload:
        parser.error("--workload is required")

    code, report = run_workload(exe, args.workload, args.seed, args.seconds,
                                args.trace, args.size)
    result, problems = evaluate(spec, pins, report, code, args.workload,
                                args.seed, args.trace, args.size)
    print_table(spec, report, result)
    for problem in problems:
        print("FAIL " + problem)
    if report is not None:
        results = os.path.join(build_dir(), "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, "%s-seed%d-trace%d-%s.json" % (
            args.workload, args.seed, args.trace, args.size))
        with open(path, "w") as f:
            json.dump({"meta": report["meta"], "result": result,
                       "all_metrics": report["metrics"]}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
