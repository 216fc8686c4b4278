#!/usr/bin/env python3
"""Diff fresh bench JSON dumps against committed baselines.

Compares the perf-core metrics — serve queries/sec, campaign trials/sec,
route reroute latency, dissect pairs/sec, allocations per query —
benchmark by benchmark, and fails (exit 1) when any tracked metric
regressed by more than the tolerance (default 15%).  Metrics where higher
is better (rates) regress when fresh < baseline; latency/allocation
metrics regress when fresh > baseline.

Zero baselines are meaningful for lower-is-better counters: a committed
allocs_per_query of 0 is the zero-allocation guarantee, and ANY fresh
value above zero is a regression (no 15% grace on zero).

Non-finite metric values (JSON null after the harness sanitizer, or
Infinity/NaN from older dumps) are tolerated and flagged instead of
crashing the comparison; they fail the run only under --strict-missing.

Usage:
  bench/check_regressions.py --fresh <dir> [--baseline bench/baselines]
                             [--tolerance 0.15]
  bench/check_regressions.py --selftest

Only benchmarks present in BOTH dumps are compared (a new benchmark is not
a regression; a deleted one is reported as missing but non-fatal unless
--strict-missing is set).  A TRACKED pattern that matches no entry of its
committed baseline fails the run: a renamed benchmark must not drop out of
the gate unnoticed.
"""

import argparse
import json
import math
import pathlib
import re
import sys

# (harness, benchmark-name regex, metric, higher_is_better).
# The tracked perf core:
#   * serve engine throughput (queries/sec via items_per_second),
#   * serve + route allocations per query (the zero-alloc guarantee),
#   * sim campaign throughput (trials/sec via items_per_second),
#   * route engine reroute latency (cold + steady-state + fan-out, cpu_time),
#   * the Fig-10 robustness planner end to end (cpu_time),
#   * dissect all-pairs sweep throughput (pairs_per_second counter),
#   * cascade campaign throughput (trials_per_second counter, on the wall
#     clock),
#   * the 20 000-probe traceroute campaign (cpu_time; single-threaded, so
#     CPU time is wall time; its per-benchmark min time names it
#     BM_CampaignRouting/min_time:...).
TRACKED = [
    ("bench_serve_engine", r".*", "items_per_second", True),
    ("bench_serve_engine", r"BM_Fast.*", "allocs_per_query", False),
    ("bench_serve_sharded", r"BM_ShardedWarm/.*", "items_per_second", True),
    ("bench_serve_sharded", r"BM_ShardedDeltaApply", "items_per_second", True),
    ("bench_route_engine", r".*Reroute.*", "allocs_per_query", False),
    ("bench_sim_campaign", r".*", "items_per_second", True),
    ("bench_route_engine", r".*Reroute.*", "cpu_time", False),
    ("bench_route_engine", r"BM_RobustnessPlannerEndToEnd", "cpu_time", False),
    ("bench_dissect", r"BM_(AllPairsBatched|DissectionSweep).*", "pairs_per_second", True),
    ("bench_cascade", r"BM_CascadeCampaign.*", "trials_per_second", True),
    ("bench_worldgen", r"BM_(GenerateWorld|StrictIngest|RiskMatrix|SnapshotBuild)/(1|10)$",
     "items_per_second", True),
    ("bench_table23_topconduits", r"BM_CampaignRouting(/.*)?", "cpu_time", False),
]

_NONFINITE_TOKEN = re.compile(r'(?<![\w."])-?(?:inf(?:inity)?|nan)(?![\w"])', re.IGNORECASE)


def parse_dump(text: str):
    """Parse a google-benchmark dump, tolerating non-finite values.

    Infinity/NaN constants map to None; bare inf/nan tokens from dumps
    predating the harness-side sanitizer are rewritten to null first.
    """
    try:
        return json.loads(text, parse_constant=lambda _: None)
    except ValueError:
        return json.loads(_NONFINITE_TOKEN.sub("null", text),
                          parse_constant=lambda _: None)


def load_benchmarks(path: pathlib.Path):
    with open(path) as f:
        data = parse_dump(f.read())
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = bench
    return out


def metric_value(bench: dict, metric: str):
    """The metric as a finite float, or None when absent/non-finite."""
    if metric not in bench:
        return None
    value = bench[metric]
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def compare(base_value: float, fresh_value: float, higher_is_better: bool,
            tolerance: float):
    """Return (change_fraction, regressed) for one tracked metric pair.

    A zero baseline on a lower-is-better metric is a hard floor: any
    fresh value above zero regresses.  A zero baseline on a rate has no
    meaningful direction and never regresses.
    """
    if base_value == 0.0:
        if higher_is_better:
            return 0.0, False
        return (math.inf if fresh_value > 0.0 else 0.0), fresh_value > 0.0
    change = fresh_value / base_value - 1.0
    regressed = change < -tolerance if higher_is_better else change > tolerance
    return change, regressed


def unmatched_patterns(tracked, baselines):
    """TRACKED entries whose pattern matches no baseline benchmark carrying
    the metric.  `baselines` maps harness -> {name: bench} (None when the
    harness has no committed dump)."""
    unmatched = []
    for harness, name_re, metric, _ in tracked:
        base = baselines.get(harness) or {}
        pattern = re.compile(name_re)
        if not any(pattern.fullmatch(name) and metric in bench for name, bench in base.items()):
            unmatched.append(f"{harness}: {name_re!r} ({metric})")
    return unmatched


def selftest() -> int:
    cases = [
        # (base, fresh, higher_is_better, tolerance, expect_regressed)
        (100.0, 90.0, True, 0.15, False),    # -10% rate: within tolerance
        (100.0, 80.0, True, 0.15, True),     # -20% rate: regression
        (10.0, 11.0, False, 0.15, False),    # +10% latency: within tolerance
        (10.0, 12.0, False, 0.15, True),     # +20% latency: regression
        (0.0, 0.0, False, 0.15, False),      # zero-alloc guarantee held
        (0.0, 0.01, False, 0.15, True),      # any alloc over a 0 baseline fails
        (0.0, 123.0, True, 0.15, False),     # zero-rate baseline: undirected
    ]
    failures = 0
    for base, fresh, higher, tol, expected in cases:
        _, regressed = compare(base, fresh, higher, tol)
        status = "ok" if regressed == expected else "FAIL"
        if regressed != expected:
            failures += 1
        print(f"[{status:>4}] compare(base={base}, fresh={fresh}, "
              f"higher_is_better={higher}) -> regressed={regressed}")

    # Non-finite tolerance: bare tokens and JSON constants both become None.
    dump = ('{"benchmarks": [{"name": "BM_X", "run_type": "iteration", '
            '"items_per_second": inf, "cpu_time": nan, "real_time": 1.5}]}')
    bench = parse_dump(dump)["benchmarks"][0]
    for metric, expected_value in [("items_per_second", None), ("cpu_time", None),
                                   ("real_time", 1.5), ("absent", None)]:
        got = metric_value(bench, metric)
        status = "ok" if got == expected_value else "FAIL"
        if got != expected_value:
            failures += 1
        print(f"[{status:>4}] metric_value({metric}) -> {got}")
    # Benchmark names containing the tokens must survive untouched.
    named = parse_dump('{"benchmarks": [{"name": "BM_InfoNanny", '
                       '"run_type": "iteration", "cpu_time": 2.0}]}')
    if named["benchmarks"][0]["name"] != "BM_InfoNanny":
        failures += 1
        print("[FAIL] sanitizer mangled a benchmark name")

    # A pattern must match some baseline entry that carries its metric.
    tracked = [("h", r"BM_A(/.*)?", "cpu_time", False), ("h", r"BM_B", "cpu_time", False),
               ("h", r"BM_A(/.*)?", "items_per_second", True), ("g", r".*", "cpu_time", False)]
    baselines = {"h": {"BM_A/min_time:2.000": {"cpu_time": 1.0}, "BM_Bx": {"cpu_time": 1.0}}}
    got = unmatched_patterns(tracked, baselines)
    expected = ["h: 'BM_B' (cpu_time)", "h: 'BM_A(/.*)?' (items_per_second)",
                "g: '.*' (cpu_time)"]
    status = "ok" if got == expected else "FAIL"
    if got != expected:
        failures += 1
    print(f"[{status:>4}] unmatched_patterns -> {got}")

    if failures:
        print(f"selftest: {failures} case(s) failed", file=sys.stderr)
        return 1
    print("selftest: all cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", type=pathlib.Path,
                        help="directory of freshly generated BENCH_*.json")
    parser.add_argument("--baseline", default="bench/baselines", type=pathlib.Path)
    parser.add_argument("--tolerance", default=0.15, type=float)
    parser.add_argument("--strict-missing", action="store_true",
                        help="fail when a tracked dump, benchmark, or metric "
                             "value is missing/non-finite")
    parser.add_argument("--selftest", action="store_true",
                        help="exercise the comparison logic on synthetic dumps")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.fresh is None:
        parser.error("--fresh is required (or use --selftest)")

    baselines = {}
    for harness, _, _, _ in TRACKED:
        base_path = args.baseline / f"BENCH_{harness}.json"
        if harness not in baselines:
            baselines[harness] = load_benchmarks(base_path) if base_path.is_file() else None
    unmatched = unmatched_patterns(TRACKED, baselines)
    for entry in unmatched:
        print(f"error: tracked pattern matches no baseline entry: {entry}", file=sys.stderr)
    if unmatched:
        return 1

    regressions = []
    missing = []
    compared = 0
    for harness, name_re, metric, higher_is_better in TRACKED:
        base = baselines[harness]
        fresh_path = args.fresh / f"BENCH_{harness}.json"
        if not fresh_path.is_file():
            missing.append(f"{harness}: dump missing ({fresh_path})")
            continue
        fresh = load_benchmarks(fresh_path)
        pattern = re.compile(name_re)
        for name, base_bench in base.items():
            if not pattern.fullmatch(name) or metric not in base_bench:
                continue
            if name not in fresh or metric not in fresh[name]:
                missing.append(f"{harness}/{name}: absent from fresh dump")
                continue
            base_value = metric_value(base_bench, metric)
            fresh_value = metric_value(fresh[name], metric)
            if base_value is None or fresh_value is None:
                side = "baseline" if base_value is None else "fresh"
                missing.append(f"{harness}/{name} {metric}: non-finite {side} value")
                print(f"[ nonfinite] {harness}/{name} {metric}: skipped")
                continue
            compared += 1
            change, regressed = compare(base_value, fresh_value, higher_is_better,
                                        args.tolerance)
            marker = "REGRESSION" if regressed else "ok"
            print(f"[{marker:>10}] {harness}/{name} {metric}: "
                  f"{base_value:.4g} -> {fresh_value:.4g} ({change:+.1%})")
            if regressed:
                regressions.append(f"{harness}/{name} {metric} {change:+.1%}")

    for note in missing:
        print(f"[   missing] {note}", file=sys.stderr)
    if compared == 0:
        print("error: nothing compared — wrong --fresh/--baseline dir?", file=sys.stderr)
        return 1
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {args.tolerance:.0%}:",
              file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    if missing and args.strict_missing:
        return 1
    print(f"\nall {compared} tracked metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
