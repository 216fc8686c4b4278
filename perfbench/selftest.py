#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py [--quick]

Run from the repository root; builds through run.py like a normal run.
Checks, on short runs:
  * the result line has exactly the keys and metric names BENCHMARK.json
    promises, traced and untraced, and the run context is recorded;
  * every rate is its printed count divided by its printed wall-clock
    seconds, and the sources read no clock but steady_clock;
  * a traced run writes a Chrome trace that parses, whose spans nest, and
    whose inner spans cover >= 95 % of each measured operation; the report
    prints the uncovered row;
  * campaign-10x digests match across executor sizes and across runs (at
    reduced trial counts);
  * serve-live (and, without --quick, paper) check their outputs with 0
    failed operations at seed 0x1257 and at another seed.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAPER_SEED = 0x1257
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, seconds, trace=0, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def report_value(lines, prefix):
    for line in lines:
        if line.strip().startswith(prefix):
            return line.strip()[len(prefix):].strip()
    return None


def digest(lines):
    match = re.search(r"digest ([0-9a-f]{16})", "\n".join(lines))
    return match.group(1) if match else None


def check_result(name, rc, lines, result, spec, trace):
    check(rc == 0 and result is not None, "%s: exit 0 with a result line" % name)
    if result is None:
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s: result keys are correct/attempted/failed/metrics" % name)
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          "%s: correct, 0 failed, attempted >= 1" % name)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    check([m["name"] for m in want] == list(result["metrics"]),
          "%s: metric names are BENCHMARK.json's %s" % (name, "per_layer" if trace else
                                                        "end_to_end"))
    check(all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in want
              if m["name"] in result["metrics"]), "%s: metric units match" % name)
    if not trace:
        check(all(result["metrics"][m["name"]]["value"] > 0 for m in want
                  if m["name"] in result["metrics"]), "%s: every end-to-end metric > 0" % name)
    text = "\n".join(lines)
    check(all(key in text for key in ("nproc", "compiler", "build", "executor threads",
                                      "world:", "seed")),
          "%s: report records nproc, compiler, build type, executor size, world, seed" % name)


def check_rates(name, lines):
    rates = [re.match(r"\s*rate (\S+) = (\S+) / (\S+) s = (\S+)", line) for line in lines]
    rates = [m for m in rates if m]
    check(rates, "%s: report prints its rates" % name)
    for m in rates:
        count, seconds, value = float(m.group(2)), float(m.group(3)), float(m.group(4))
        check(seconds > 0 and abs(value - count / seconds) <= 1e-9 * value,
              "%s: %s = %s / %s s" % (name, m.group(1), m.group(2), m.group(3)))
        shown = report_value(lines, m.group(1) + " ")
        check(shown is not None and abs(float(shown.split()[0]) - value) <= 1e-6 * value + 1e-6,
              "%s: figure %s is the rate" % (name, m.group(1)))


def check_clocks():
    sources = glob.glob(os.path.join(HERE, "*.cpp")) + glob.glob(os.path.join(HERE, "*.hpp"))
    banned = re.compile(r"system_clock|high_resolution_clock|\bclock\(|getrusage|CPUTIME|"
                        r"clock_gettime|\btimes\(")
    hits = [f for f in sources if banned.search(open(f).read())]
    check(not hits, "sources time with steady_clock only (no CPU-time clocks): %s" % (hits or "ok"))


def check_trace(name, lines, path):
    check(any(line.strip().startswith("(uncovered)") for line in lines),
          "%s: report prints the (uncovered) row" % name)
    try:
        events = json.load(open(path))["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        check(False, "%s: trace file %s parses (%s)" % (name, path, e))
        return
    check(len(events) > 0, "%s: trace file parses, %d spans" % (name, len(events)))
    by_thread = {}
    for e in events:
        by_thread.setdefault(e["tid"], {})[e["args"]["id"]] = e
    nested, children = True, {}
    for tid, spans in by_thread.items():
        for e in spans.values():
            parent = e["args"]["parent"]
            if parent < 0:
                continue
            p = spans.get(parent)
            eps = 0.002  # microseconds, the file's print precision
            if p is None or e["ts"] + eps < p["ts"] or \
                    e["ts"] + e["dur"] > p["ts"] + p["dur"] + 2 * eps:
                nested = False
            children[(tid, parent)] = children.get((tid, parent), 0.0) + e["dur"]
    check(nested, "%s: every span lies inside its parent on its thread" % name)
    cover = {}
    for tid, spans in by_thread.items():
        for e in spans.values():
            if e["args"]["parent"] < 0:
                covered, total = cover.get(e["name"], (0.0, 0.0))
                cover[e["name"]] = (covered + children.get((tid, e["args"]["id"]), 0.0),
                                    total + e["dur"])
    for op, (covered, total) in sorted(cover.items()):
        check(total > 0 and covered / total >= 0.95,
              "%s: inner spans cover %.2f%% of %s" % (name, 100 * covered / max(total, 1e-9), op))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="skip the paper workload")
    args = parser.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    check_clocks()
    traces = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
                          "perfbench", "traces")
    if not os.path.isabs(traces):
        traces = os.path.join(ROOT, traces)

    # serve-live: untraced at two seeds, traced once.
    for seed in (PAPER_SEED, 7):
        rc, lines, result = run("serve-live", seed, 1)
        check_result("serve-live seed %d" % seed, rc, lines, result, spec, trace=False)
        check_rates("serve-live seed %d" % seed, lines)
    rc1, lines1, _ = run("serve-live", 7, 1)
    check(digest(lines1) == digest(lines) and digest(lines) is not None,
          "serve-live: client-0 digest is the same in two runs")
    rc, lines, result = run("serve-live", 7, 1, 1)
    check_result("serve-live traced", rc, lines, result, spec, trace=True)
    check_trace("serve-live traced", lines, os.path.join(traces, "serve-live-7.json"))

    # campaign-10x at reduced trial counts: digests across executor sizes.
    digests = []
    for threads in (1, 2, 4):
        rc, lines, result = run("campaign-10x", 3, 0.1, 0, "--threads", str(threads),
                                "--shrink", "8")
        check_result("campaign-10x threads %d" % threads, rc, lines, result, spec, trace=False)
        check_rates("campaign-10x threads %d" % threads, lines)
        digests.append(digest(lines))
    rc, lines, result = run("campaign-10x", 3, 0.1, 0, "--threads", "4", "--shrink", "8")
    digests.append(digest(lines))
    check(None not in digests and len(set(digests)) == 1,
          "campaign-10x: report digest equal at 1, 2, 4 threads and across runs %s" % digests)
    rc, lines, result = run("campaign-10x", 3, 0.1, 1, "--shrink", "8")
    check_result("campaign-10x traced", rc, lines, result, spec, trace=True)
    check_trace("campaign-10x traced", lines, os.path.join(traces, "campaign-10x-3.json"))

    if not args.quick:
        rc, lines, result = run("paper", PAPER_SEED, 0.1, 1)
        check_result("paper traced seed 0x1257", rc, lines, result, spec, trace=True)
        check_trace("paper traced seed 0x1257", lines, os.path.join(traces, "paper-4695.json"))
        check("172 nodes, 1078 links, 379 conduits" in "\n".join(lines) and
              "precision/recall 0.876/0.915" in "\n".join(lines),
              "paper: seed 0x1257 reproduces EXPERIMENTS.md E1 and the fidelity figures")
        rc, lines, result = run("paper", 7, 0.1)
        check_result("paper seed 7", rc, lines, result, spec, trace=False)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
