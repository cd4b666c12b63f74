#!/usr/bin/env python3
"""Compares two sets of bench_e2e results: a parent commit and a change.

    python3 bench_e2e/compare.py PARENT_DIR CHANGE_DIR \
        [--claim tenants:throughput_eps ...]

Each directory holds one file per run: the benchmark's last stdout line
(the JSON result object), named <workload>.<key>.json, e.g.
tenants.s3.json. Runs of the two sides with the same file name are a pair,
so run both sides with the same seeds and settings, alternating which
side runs first.

For every (workload, end-to-end metric) it prints each side's median and
quartiles and a verdict, using the bounds and directions in
BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more
              than the metric's bound
  improved    a claimed metric: the change wins at least 9 of 10 pairs
              (ties count for neither) and the medians differ by more
              than the parent's quartile spread
  not met     a claimed metric that did not improve by that rule
  unresolved  the parent's own quartile spread is wider than the bound,
              and not every change run beats every parent run
  unchanged   otherwise

Per-layer metrics (from --trace 1 runs) are listed with both medians and
no verdict. The exit status is 1 when anything regressed, a claim was not
met, or the change has failed runs or more failed operations than the
parent.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_side(directory):
    """{workload: {key: result}} for every <workload>.<key>.json."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "." not in name[:-5]:
            continue
        workload, key = name[:-5].split(".", 1)
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        runs.setdefault(workload, {})[key] = json.loads(lines[-1])
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def judge(metric, parent, change, claimed):
    """Returns (verdict, text) for one (workload, metric)."""
    keys = sorted(set(parent) & set(change))
    p = [parent[k] for k in sorted(parent)]
    c = [change[k] for k in sorted(change)]
    p_q1, p_med, p_q3 = summary(p)
    c_q1, c_med, c_q3 = summary(c)
    direction = metric["better"]
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    worse_frac = worse / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    wins = sum(better(change[k], parent[k], direction) for k in keys)
    text = ("parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
            "%+.1f%% worse, parent spread %.1f%%, wins %d/%d" %
            (p_med, p_q1, p_q3, c_med, c_q1, c_q3, 100 * worse_frac,
             100 * spread, wins, len(keys)))
    if worse_frac > metric["bound"]:
        return "regressed", text
    if claimed:
        met = (keys and wins >= 0.9 * len(keys) and
               abs(c_med - p_med) > p_q3 - p_q1)
        return ("improved" if met else "not met"), text
    every_better = all(better(x, y, direction) for x in c for y in p)
    if spread > metric["bound"] and not every_better:
        return "unresolved", text
    return "unchanged", text


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        help="workload:metric the change claims to improve")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    parent = load_side(args.parent)
    change = load_side(args.change)

    failed = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        p_runs = parent.get(workload, {})
        c_runs = change.get(workload, {})
        if not p_runs or not c_runs:
            print("%s: no runs on %s" % (
                workload, "both sides" if not p_runs and not c_runs else
                ("the parent side" if not p_runs else "the change side")))
            continue
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        c_incorrect = sum(not r["correct"] for r in c_runs.values())
        print("%s: %d parent runs (%d failed ops), %d change runs "
              "(%d failed ops, %d incorrect)" %
              (workload, len(p_runs), p_failed, len(c_runs), c_failed,
               c_incorrect))
        if c_incorrect or c_failed > p_failed:
            print("  FAIL: the change has failed operations or wrong outputs")
            failed = True
        for kind in ("end_to_end", "per_layer"):
            for metric in benchmark[kind]:
                name = metric["name"]
                p = {k: r["metrics"][name]["value"]
                     for k, r in p_runs.items() if name in r["metrics"]}
                c = {k: r["metrics"][name]["value"]
                     for k, r in c_runs.items() if name in r["metrics"]}
                if not p or not c:
                    continue
                if kind == "per_layer":
                    print("  %-34s parent %.6g  change %.6g %s" %
                          (name, statistics.median(p.values()),
                           statistics.median(c.values()), metric["unit"]))
                    continue
                claimed = "%s:%s" % (workload, name) in args.claim
                verdict, text = judge(metric, p, c, claimed)
                print("  %-16s %-11s %s" % (name, verdict, text))
                failed |= verdict in ("regressed", "not met")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
