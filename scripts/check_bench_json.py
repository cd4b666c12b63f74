#!/usr/bin/env python3
"""Validates the structure of the bench JSON outputs.

Usage: check_bench_json.py <bench_json> [<bench_json> ...]

Every bench JSON must carry a provenance block (CPU model, core count,
min-of-N timing discipline) plus the per-bench sections this script pins
down. The CI perf-smoke job runs each bench with --smoke and feeds the
results through here, so a bench that silently stops emitting a field
fails the build instead of producing an unreadable trajectory.
"""

import json
import sys


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def require(data, path, key, kind):
    if key not in data:
        fail(path, f"missing key {key!r}")
    if not isinstance(data[key], kind):
        fail(path, f"key {key!r} has type {type(data[key]).__name__}, "
                   f"expected {kind.__name__}")
    return data[key]


def check_provenance(doc, path):
    prov = require(doc, path, "provenance", dict)
    cpu = require(prov, path, "cpu_model", str)
    if not cpu:
        fail(path, "provenance.cpu_model is empty")
    require(prov, path, "hardware_concurrency", int)
    timing = require(prov, path, "timing", str)
    if not timing.startswith("min-of-"):
        fail(path, f"provenance.timing is {timing!r}, expected 'min-of-N'")
    repeats = require(prov, path, "timing_repeats", int)
    if repeats < 1:
        fail(path, f"provenance.timing_repeats is {repeats}")


def check_runs(runs, path, section, required_numbers):
    if not runs:
        fail(path, f"{section}.runs is empty")
    for i, run in enumerate(runs):
        for key in required_numbers:
            if key not in run:
                fail(path, f"{section}.runs[{i}] missing {key!r}")
            if not isinstance(run[key], (int, float)) or run[key] < 0:
                fail(path, f"{section}.runs[{i}].{key} = {run[key]!r}")


def check_scaling(runs, path, section, hardware_concurrency):
    """A threaded row measures scaling only on a host that runs all of its
    threads at once. A row with more threads than hardware_concurrency
    times oversubscription: it must say "measured": false and carry no
    efficiency. Every other row must say "measured": true and carry one."""
    for i, run in enumerate(runs):
        where = f"{section}.runs[{i}] ({run['threads']} threads)"
        if run["threads"] > hardware_concurrency:
            if run.get("measured") is not False:
                fail(path, f"{where} exceeds hardware_concurrency "
                           f"{hardware_concurrency} but is not marked "
                           "\"measured\": false")
            if "per_thread_efficiency" in run:
                fail(path, f"{where} is not measured but reports a "
                           "per_thread_efficiency")
        else:
            if run.get("measured") is not True:
                fail(path, f"{where} is not marked \"measured\": true")
            check_runs([run], path, where, ["per_thread_efficiency"])


def check_throughput(doc, path):
    hardware = doc["provenance"]["hardware_concurrency"]
    training = require(doc, path, "training", dict)
    reference = require(training, path, "reference", dict)
    if reference.get("threads") != 1:
        fail(path, "training.reference must be a single-thread row")
    ref_seconds = require(reference, path, "wall_time_sec", (int, float))
    if ref_seconds <= 0:
        fail(path, f"training.reference.wall_time_sec = {ref_seconds}")
    runs = require(training, path, "runs", list)
    check_runs(runs, path, "training",
               ["threads", "wall_time_sec", "speedup", "speedup_vs_dense"])
    check_scaling(runs, path, "training", hardware)
    for i, run in enumerate(runs):
        if run.get("engine") != "batch" or not run.get("simd_level"):
            fail(path, f"training.runs[{i}] must run the production batch "
                       "engine and name its simd_level")
    if training.get("bit_identical") is not True:
        fail(path, "training.bit_identical is not true")
    density = require(training, path, "transition_density", (int, float))
    if density <= 0:
        fail(path, f"training.transition_density = {density}")

    batch_train = require(training, path, "batch_runs", list)
    check_runs(batch_train, path, "training.batch_runs",
               ["width", "wall_time_sec", "speedup_vs_dense"])
    batch_names = {run.get("name") for run in batch_train}
    for expected in ("batch-scalar", "batch-simd"):
        if expected not in batch_names:
            fail(path, f"training.batch_runs missing a {expected!r} row")
    for i, run in enumerate(batch_train):
        if not run.get("simd_level"):
            fail(path, f"training.batch_runs[{i}].simd_level is missing")
        if run.get("bit_identical") is not True:
            fail(path, f"training.batch_runs[{i}].bit_identical is not "
                       "true (the batched engine must train the exact "
                       "model the dense reference trained)")
        # The training perf gate: with real SIMD lanes the batched E-step
        # must beat the dense single-thread reference by >= 3x. It binds
        # only at scale (the --smoke preset trains a toy model over ~100
        # windows, where fixed per-iteration overhead dominates and the
        # multiple is meaningless) and only off scalar hardware: a
        # forced-scalar or lane-less run reports simd_level "scalar" and is
        # exempt (the batch-scalar row exists so that configuration is
        # still tracked).
        if (run.get("name") == "batch-simd"
                and run.get("simd_level") != "scalar"
                and training.get("windows", 0) >= 200
                and run["speedup_vs_dense"] < 3.0):
            fail(path, f"training.batch_runs[{i}] (batch-simd, "
                       f"{run['simd_level']}): speedup_vs_dense "
                       f"{run['speedup_vs_dense']} < 3.0")

    kernels = require(doc, path, "kernels", dict)
    for key in ("dense_wall_time_sec", "transition_density",
                "emission_density"):
        value = require(kernels, path, key, (int, float))
        if value <= 0:
            fail(path, f"kernels.{key} = {value}")
    require(kernels, path, "transition_nnz", int)
    require(kernels, path, "emission_nnz", int)

    batch_runs = require(kernels, path, "batch_runs", list)
    check_runs(batch_runs, path, "kernels.batch_runs",
               ["width", "wall_time_sec", "windows_per_sec",
                "speedup_vs_dense", "triage_certified_fraction"])
    names = {run.get("name") for run in batch_runs}
    for expected in ("batch-scalar", "batch-simd", "batch-simd-triage"):
        if expected not in names:
            fail(path, f"kernels.batch_runs missing a {expected!r} row")
    for i, run in enumerate(batch_runs):
        if not run.get("simd_level"):
            fail(path, f"kernels.batch_runs[{i}].simd_level is missing")
        if run.get("scores_ok") is not True:
            fail(path, f"kernels.batch_runs[{i}].scores_ok is not true "
                       "(exact rows must be bit-identical to the dense "
                       "reference, triage rows sound floors)")
    table_bytes = require(kernels, path, "quantized_table_bytes", int)
    if table_bytes <= 0:
        fail(path, f"kernels.quantized_table_bytes = {table_bytes}")

    detection = require(doc, path, "detection", dict)
    detect_runs = require(detection, path, "runs", list)
    check_runs(detect_runs, path, "detection",
               ["threads", "events", "wall_time_sec", "events_per_sec",
                "windows_per_sec"])
    check_scaling(detect_runs, path, "detection", hardware)
    if not any(run.get("weak_scaled") is True for run in detect_runs
               if run.get("threads", 1) > 1):
        fail(path, "detection has multi-thread runs but none weak-scaled"
             if any(run.get("threads", 1) > 1 for run in detect_runs)
             else "detection.runs has no multi-thread rows")


def check_streaming(doc, path):
    check_runs(require(doc, path, "runs", list), path, "streaming",
               ["sessions", "events", "wall_time_sec", "events_per_sec",
                "submit_p50_us", "submit_p99_us"])

    fleet_runs = require(doc, path, "fleet_runs", list)
    check_runs(fleet_runs, path, "streaming.fleet_runs",
               ["shards", "tenants", "sessions", "events", "verdicts",
                "drops", "backlog_max", "wall_time_sec", "events_per_sec",
                "submit_p50_us", "submit_p99_us"])
    if not any(run.get("shards", 0) >= 8 for run in fleet_runs):
        fail(path, "fleet_runs has no row with >= 8 shards")


def check_analysis(doc, path):
    apps = require(doc, path, "apps", list)
    check_runs(apps, path, "apps",
               ["functions", "fi_taint_ms", "absint_ms", "lint_ms",
                "ifds_ms", "witness_ms", "fi_labeled_sinks",
                "ifds_labeled_sinks", "ifds_sink_facts",
                "ifds_pruned_facts", "ifds_witnesses"])
    for i, run in enumerate(apps):
        # Strong updates only ever remove flow-insensitive labels.
        if run["ifds_labeled_sinks"] > run["fi_labeled_sinks"]:
            fail(path, f"apps[{i}]: ifds_labeled_sinks "
                       f"({run['ifds_labeled_sinks']}) exceeds "
                       f"fi_labeled_sinks ({run['fi_labeled_sinks']})")
        # Pruning can only discard some of the labeler's facts.
        if run["ifds_pruned_facts"] > run["ifds_sink_facts"]:
            fail(path, f"apps[{i}]: ifds_pruned_facts "
                       f"({run['ifds_pruned_facts']}) exceeds "
                       f"ifds_sink_facts ({run['ifds_sink_facts']})")
    drift = require(doc, path, "drift", dict)
    revisions = require(drift, path, "revisions", list)
    check_runs(revisions, path, "drift.revisions",
               ["functions", "cold_ms", "warm_ms", "speedup", "warm_hits",
                "warm_misses"])
    kinds = [r.get("kind") for r in revisions]
    for expected in ("none", "body_edit", "signature", "new_callee",
                     "schema", "sink_relabel"):
        if expected not in kinds:
            fail(path, f"drift.revisions missing a {expected!r} row")
    for i, run in enumerate(revisions):
        # A body-only edit re-solves one function out of 25; the warm run
        # must recoup at least 5x of the cold cached-pass time.
        if run.get("kind") == "body_edit" and run["speedup"] < 5:
            fail(path, f"drift.revisions[{i}] (body_edit): speedup "
                       f"{run['speedup']} < 5")
        # The base revision re-analyzed warm must hit on everything.
        if run.get("kind") == "none" and run["warm_misses"] != 0:
            fail(path, f"drift.revisions[{i}] (none): {run['warm_misses']} "
                       "warm misses on an unchanged program")
    ablation = require(doc, path, "forecast_ablation", dict)
    require(ablation, path, "refined_mean_score", (int, float))
    require(ablation, path, "uniform_mean_score", (int, float))


CHECKERS = {
    "bench_throughput": check_throughput,
    "bench_streaming": check_streaming,
    "bench_analysis_passes": check_analysis,
}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(path, f"unreadable: {e}")
        name = require(doc, path, "bench", str)
        if name not in CHECKERS:
            fail(path, f"unknown bench name {name!r}")
        check_provenance(doc, path)
        CHECKERS[name](doc, path)
        print(f"{path}: ok ({name})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
