"""Tiny-size self-test of the benchmark, run by `run.py --self-test`.

Runs every workload untraced and traced on seconds-long inputs and checks
that each reports every metric of BENCHMARK.json and matches its pins; then
breaks one output at a time (the binary's --inject points) and checks that
the matching output check fails the run; then checks that a directory
holding only BENCHMARK.json and perfbench/ exits non-zero with no result.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import (HERE, ROOT, WORKLOADS, build_dir, evaluate, pin_failures,
                 run_workload)

# (workload, --inject point, text the failed check must contain)
INJECTIONS = (
    ("cold-rmat", "labels", "outside [0,"),
    ("cold-rmat", "file", "partition file"),
    ("cold-rmat", "reference", "in-process SpinnerPartitioner"),
    ("cold-ws-mp", "reference", "in-process SpinnerPartitioner"),
    ("stream-ws", "labels", "outside [0,"),
    ("stream-ws", "file", "partition file"),
    ("stream-ws", "replay", "blocking ApplyDelta replay"),
)


def self_test(exe, spec, pins):
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        expect(workload in pins["tiny"], "%s has tiny pins" % workload)
        for trace in (0, 1):
            code, report = run_workload(exe, workload, 1, 1, trace, "tiny")
            result, problems = evaluate(spec, pins, report, code, workload,
                                        1, trace, "tiny")
            label = "%s trace=%d" % (workload, trace)
            expect(code == 0 and result["correct"] and not problems,
                   "%s runs clean %s" % (label, problems))
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            expect(sorted(result["metrics"]) == sorted(names),
                   "%s reports every metric" % label)
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   "%s counts operations" % label)
        if report is not None:
            broken = copy.deepcopy(pins)
            broken["tiny"][workload]["phi"] += 1e-6
            broken["tiny"][workload]["checksum"] = "0" * 16
            expect(len(pin_failures(report, broken, workload, 1, "tiny")) == 2,
                   "%s pin check catches a changed phi and checksum" %
                   workload)

    for workload, point, needle in INJECTIONS:
        code, report = run_workload(exe, workload, 1, 1, 0, "tiny", point)
        result, _ = evaluate(spec, pins, report, code, workload, 1, 0, "tiny")
        fired = report is not None and any(needle in c
                                           for c in report["checks"])
        expect(code != 0 and fired and not result["correct"],
               "%s --inject=%s fails the '%s' check" %
               (workload, point, needle))

    # A directory with only BENCHMARK.json and perfbench/: no result line.
    bare = tempfile.mkdtemp(prefix="bare-", dir=build_dir())
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold-rmat",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        printed_result = any(line.startswith("{")
                             for line in done.stdout.splitlines())
        expect(done.returncode != 0 and not printed_result,
               "a checkout without sources exits %d with no result" %
               done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test: %d failure(s)" % len(failures))
    print(json.dumps({"self_test_failures": failures}))
    return 1 if failures else 0
