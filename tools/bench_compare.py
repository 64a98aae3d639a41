#!/usr/bin/env python3
"""Perf-regression gate: diff fresh bench-smoke output against the
committed BENCH_*.json baselines at the repository root.

Usage (what the bench-smoke CI job runs):

    python3 tools/bench_compare.py --fresh bench-output [--baseline .]

Every baseline BENCH_*.json must have a fresh counterpart, and every
gated metric must stay within tolerance of the committed number, or the
script exits 1 and the job fails.

Metric classes, because CI runners differ from the machine that wrote a
baseline:

  * ratio metrics (lpa_kernel kernel_speedup / stealing_speedup) are
    within-run A/B ratios — machine-independent by construction — and
    quality metrics (phi, rho) are bit-deterministic for a fixed seed.
    Both gate hard at --tolerance (default 20%).
  * wall-clock metrics (fig6 real_time, stream_ingest events_per_sec)
    shift with the host, so each is first normalized by the best value
    in its own file (shape, not speed) and the shape gates at
    --wall-tolerance (default 50%). stream_ingest rebuild_share — the
    within-run share (apply - LPA) / apply of a window — is already a
    shape; it gates at --wall-tolerance too, higher is worse, so a delta
    path that falls back to rebuilding the graph every window fails.
  * fig6's timings are single-shot (`iterations:1` manual timing), so a
    scheduler hiccup on a shared runner can double one entry while its
    siblings are unaffected; those gate at the wider
    --single-shot-tolerance (default 150%), which still catches the
    asymptotic regressions the bench exists to guard (a super-linear
    shape blowup, a lane suddenly costing several times its siblings).
  * the fig8 elastic replay is clock-injected and seeded end to end, so
    its integer outcomes (final_k, rescales, windows, evaluations,
    rho_violations) must match the baseline exactly; its quality floats
    gate at --tolerance and replay_wall_seconds is never gated.

Baselines are refreshed by re-running the benches with --smoke and
committing the new JSON in the same PR that changes performance.
"""

import argparse
import json
import os
import sys


class Gate:
    """Collects per-metric verdicts and renders the final report."""

    def __init__(self):
        self.rows = []  # (file, metric, base, fresh, limit, ok)
        self.errors = []

    def check(self, file, metric, base, fresh, tolerance, higher_is_better):
        if higher_is_better:
            limit = base * (1.0 - tolerance)
            ok = fresh >= limit
        else:
            limit = base * (1.0 + tolerance)
            ok = fresh <= limit
        self.rows.append((file, metric, base, fresh, limit, ok))

    def error(self, message):
        self.errors.append(message)

    def report(self):
        width = max((len(m) for _, m, *_ in self.rows), default=10)
        current = None
        for file, metric, base, fresh, limit, ok in self.rows:
            if file != current:
                print(f"== {file}")
                current = file
            verdict = "ok" if ok else "REGRESSION"
            print(
                f"  {metric:<{width}}  base={base:<10.4f}"
                f" fresh={fresh:<10.4f} limit={limit:<10.4f} {verdict}"
            )
        for message in self.errors:
            print(f"ERROR: {message}")
        failed = [r for r in self.rows if not r[5]]
        if failed or self.errors:
            print(
                f"bench_compare: FAIL ({len(failed)} regression(s),"
                f" {len(self.errors)} error(s))"
            )
            return 1
        print(f"bench_compare: OK ({len(self.rows)} metrics within tolerance)")
        return 0


def load_pair(gate, baseline_dir, fresh_dir, name):
    base_path = os.path.join(baseline_dir, name)
    fresh_path = os.path.join(fresh_dir, name)
    if not os.path.exists(base_path):
        return None, None  # no baseline committed -> nothing to gate
    if not os.path.exists(fresh_path):
        gate.error(f"{name}: baseline committed but no fresh output produced")
        return None, None
    with open(base_path) as f:
        base = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    if base.get("smoke") != fresh.get("smoke"):
        gate.error(
            f"{name}: smoke flag mismatch (baseline {base.get('smoke')},"
            f" fresh {fresh.get('smoke')}) — refresh the baseline in"
            " smoke mode"
        )
        return None, None
    return base, fresh


def index_rows(rows, key):
    return {row[key]: row for row in rows}


def compare_lpa_kernel(gate, base, fresh, tolerance):
    name = "BENCH_lpa_kernel.json"
    fresh_cases = index_rows(fresh.get("cases", []), "case")
    for case in base.get("cases", []):
        label = case["case"]
        got = fresh_cases.get(label)
        if got is None:
            gate.error(f"{name}: case '{label}' missing from fresh output")
            continue
        for metric in ("kernel_speedup", "stealing_speedup"):
            gate.check(
                name,
                f"{label}.{metric}",
                case[metric],
                got[metric],
                tolerance,
                higher_is_better=True,
            )


def compare_table1(gate, base, fresh, tolerance):
    name = "BENCH_table1_comparison.json"
    fresh_rows = index_rows(fresh.get("rows", []), "partitioner")
    ks = base.get("k", [])
    for row in base.get("rows", []):
        label = row["partitioner"]
        got = fresh_rows.get(label)
        if got is None:
            gate.error(f"{name}: partitioner '{label}' missing from fresh")
            continue
        for i, k in enumerate(ks):
            gate.check(name, f"{label}.phi.k{k}", row["phi"][i],
                       got["phi"][i], tolerance, higher_is_better=True)
            gate.check(name, f"{label}.rho.k{k}", row["rho"][i],
                       got["rho"][i], tolerance, higher_is_better=False)


def compare_stream_ingest(gate, base, fresh, tolerance, wall_tolerance):
    name = "BENCH_stream_ingest.json"
    fresh_rows = index_rows(fresh.get("rows", []), "watermark")

    def shape(rows):
        best = max((r["events_per_sec"] for r in rows), default=0.0)
        return {r["watermark"]: r["events_per_sec"] / best if best else 0.0
                for r in rows}

    base_shape = shape(base.get("rows", []))
    fresh_shape = shape(fresh.get("rows", []))
    for row in base.get("rows", []):
        watermark = row["watermark"]
        got = fresh_rows.get(watermark)
        if got is None:
            gate.error(f"{name}: watermark {watermark} missing from fresh")
            continue
        gate.check(name, f"w{watermark}.phi", row["phi"], got["phi"],
                   tolerance, higher_is_better=True)
        gate.check(name, f"w{watermark}.rho", row["rho"], got["rho"],
                   tolerance, higher_is_better=False)
        gate.check(name, f"w{watermark}.events_per_sec(norm)",
                   base_shape[watermark], fresh_shape[watermark],
                   wall_tolerance, higher_is_better=True)
        if "rebuild_share" not in got:
            gate.error(f"{name}: w{watermark}.rebuild_share missing from"
                       " fresh output")
            continue
        gate.check(name, f"w{watermark}.rebuild_share",
                   row["rebuild_share"], got["rebuild_share"],
                   wall_tolerance, higher_is_better=False)


def compare_fig6(gate, base, fresh, single_shot_tolerance):
    name = "BENCH_fig6_scalability.json"

    def shape(doc):
        rows = [b for b in doc.get("benchmarks", [])
                if b.get("run_type", "iteration") == "iteration"]
        best = min((b["real_time"] for b in rows), default=0.0)
        return {b["name"]: b["real_time"] / best if best else 0.0
                for b in rows}

    base_shape = shape(base)
    fresh_shape = shape(fresh)
    for bench, norm in base_shape.items():
        if bench not in fresh_shape:
            gate.error(f"{name}: benchmark '{bench}' missing from fresh")
            continue
        gate.check(name, f"{bench}(norm)", norm, fresh_shape[bench],
                   single_shot_tolerance, higher_is_better=False)


def compare_fig8_elastic(gate, base, fresh, tolerance):
    name = "BENCH_fig8_elastic.json"
    fresh_rows = index_rows(fresh.get("rows", []), "policy")
    for row in base.get("rows", []):
        label = row["policy"]
        got = fresh_rows.get(label)
        if got is None:
            gate.error(f"{name}: policy '{label}' missing from fresh output")
            continue
        # The policy-lab replay is clock-injected and seeded end to end, so
        # every decision the controller takes is deterministic: the integer
        # outcomes must match the baseline exactly. A mismatch means the
        # replay took a different path, not that a runner was slow.
        for metric in ("final_k", "rescales", "windows", "evaluations",
                       "rho_violations"):
            if row[metric] != got[metric]:
                gate.error(
                    f"{name}: {label}.{metric} changed (baseline"
                    f" {row[metric]}, fresh {got[metric]}) — the"
                    " deterministic replay took a different path"
                )
        for metric, higher in (("phi_final", True), ("phi_min", True),
                               ("rho_max", False), ("moved_pct", False),
                               ("migration_seconds", False)):
            gate.check(name, f"{label}.{metric}", row[metric], got[metric],
                       tolerance, higher_is_better=higher)
        # replay_wall_seconds is host wall clock — informational, not gated.


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--baseline", default=".",
                        help="directory holding committed baselines"
                             " (default: repo root)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression for ratio and"
                             " quality metrics (default 0.20)")
    parser.add_argument("--wall-tolerance", type=float, default=0.50,
                        help="allowed relative drift for shape-normalized"
                             " wall-clock metrics (default 0.50)")
    parser.add_argument("--single-shot-tolerance", type=float, default=1.50,
                        help="allowed relative drift for shape-normalized"
                             " single-shot timings (fig6; default 1.50)")
    args = parser.parse_args()

    gate = Gate()
    comparators = [
        ("BENCH_lpa_kernel.json",
         lambda b, f: compare_lpa_kernel(gate, b, f, args.tolerance)),
        ("BENCH_table1_comparison.json",
         lambda b, f: compare_table1(gate, b, f, args.tolerance)),
        ("BENCH_stream_ingest.json",
         lambda b, f: compare_stream_ingest(gate, b, f, args.tolerance,
                                            args.wall_tolerance)),
        ("BENCH_fig6_scalability.json",
         lambda b, f: compare_fig6(gate, b, f, args.single_shot_tolerance)),
        ("BENCH_fig8_elastic.json",
         lambda b, f: compare_fig8_elastic(gate, b, f, args.tolerance)),
    ]
    known = {name for name, _ in comparators}
    for entry in sorted(os.listdir(args.baseline)):
        if entry.startswith("BENCH_") and entry.endswith(".json") \
                and entry not in known:
            print(f"warning: no comparator for {entry}; not gated")
    for name, run in comparators:
        base, fresh = load_pair(gate, args.baseline, args.fresh, name)
        if base is not None:
            run(base, fresh)
    return gate.report()


if __name__ == "__main__":
    sys.exit(main())
