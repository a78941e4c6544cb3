#!/usr/bin/env python3
"""Compare two bench reports (BENCH_*.json) and gate on regressions.

Usage:
    tools/bench_diff.py BASELINE.json NEW.json [--threshold PCT]
                        [--genome-thresholds JSON|@FILE]
                        [--gate-wall] [--wall-threshold PCT]

Runs are matched by their key (workload, read_length, k, engine, threads),
the run key of the bench report schema (docs/OBSERVABILITY.md). For each
matched pair the tool prints a delta table and applies two kinds of gates:

Correctness (always fatal): 'total_hits' and 'stats.completed_paths'
must be byte-identical between baseline and new. The workloads are
seeded and deterministic, so any change here means the search found a
different answer — a bug, not a perf delta.

Work counters (fatal past --threshold, default 10%): deterministic
algorithm-work measures — stats.extend_calls, stats.stree_nodes,
stats.mtree_nodes, stats.mtree_leaves — may not *increase* by more than
the threshold. These are machine-independent (a fixed workload expands a
fixed tree), which makes them the right CI gate: a committed baseline
from one machine is comparable with a fresh run on another. Decreases
are improvements and never gated. --genome-thresholds overrides the
global threshold per workload (each names a genome) — either an inline
JSON object or @FILE pointing at one, mapping workload name to max %
increase, e.g. '{"uniform_1m": 5, "repetitive_1m": 25}'. Repetitive
genomes expand deeper mismatch trees, so small code changes move their
counters more; the map lets CI pin tight gates on stable genomes without
flaking on volatile ones. Workloads absent from the map use --threshold.

Wall time (informational by default): reads_per_second deltas are
printed but only gated with --gate-wall (threshold --wall-threshold,
default 20%), because absolute throughput is not comparable across
machines. Use --gate-wall only when baseline and new ran on the same
hardware.

Runs present in the baseline but missing from the new report are fatal
(coverage must not silently shrink); runs only in the new report are
listed but allowed.

Exit codes: 0 clean, 1 regression(s) found, 2 usage/IO error.

Standard library only.
"""

import argparse
import json
import sys

# (label, getter) — deterministic work counters gated on increase.
WORK_COUNTERS = (
    ("extend_calls", lambda run: run.get("stats", {}).get("extend_calls")),
    ("stree_nodes", lambda run: run.get("stats", {}).get("stree_nodes")),
    ("mtree_nodes", lambda run: run.get("stats", {}).get("mtree_nodes")),
    ("mtree_leaves", lambda run: run.get("stats", {}).get("mtree_leaves")),
)

# Fields that must not change at all (deterministic correctness).
EXACT_FIELDS = (
    ("total_hits", lambda run: run.get("total_hits")),
    ("completed_paths", lambda run: run.get("stats", {}).get("completed_paths")),
)


def run_key(run):
    return (
        run.get("workload"),
        run.get("read_length"),
        run.get("k"),
        run.get("engine"),
        run.get("threads"),
    )


def key_str(key):
    workload, read_length, k, engine, threads = key
    return f"{workload}/m={read_length}/k={k}/{engine}/t={threads}"


def load_runs(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    runs = doc.get("runs")
    if not isinstance(runs, list):
        raise ValueError(f"{path}: no 'runs' array (not a bench report?)")
    indexed = {}
    for run in runs:
        if not isinstance(run, dict):
            continue
        key = run_key(run)
        if key in indexed:
            raise ValueError(f"{path}: duplicate run {key_str(key)}")
        indexed[key] = run
    return doc, indexed


def parse_genome_thresholds(spec):
    """'{"w": 5}' or '@path/to.json' -> dict of workload name -> float pct."""
    if spec is None:
        return {}
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as f:
            raw = json.load(f)
    else:
        raw = json.loads(spec)
    if not isinstance(raw, dict):
        raise ValueError("--genome-thresholds must be a JSON object")
    thresholds = {}
    for genome, value in raw.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"--genome-thresholds[{genome!r}]: expected a number, "
                f"got {value!r}"
            )
        if value < 0:
            raise ValueError(
                f"--genome-thresholds[{genome!r}]: must be >= 0, got {value}"
            )
        thresholds[genome] = float(value)
    return thresholds


def pct_change(baseline, new):
    if baseline == 0:
        return 0.0 if new == 0 else float("inf")
    return 100.0 * (new - baseline) / baseline


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], add_help=True
    )
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="max allowed %% increase in work counters (default 10)",
    )
    parser.add_argument(
        "--genome-thresholds",
        default=None,
        metavar="JSON|@FILE",
        help="per-workload work-counter thresholds as a JSON object "
        "(workload name -> max %% increase) or @FILE containing one; "
        "workloads not in the map fall back to --threshold",
    )
    parser.add_argument(
        "--gate-wall",
        action="store_true",
        help="also fail on reads_per_second drops past --wall-threshold",
    )
    parser.add_argument(
        "--wall-threshold",
        type=float,
        default=20.0,
        help="max allowed %% drop in reads_per_second with --gate-wall "
        "(default 20)",
    )
    args = parser.parse_args(argv[1:])

    try:
        genome_thresholds = parse_genome_thresholds(args.genome_thresholds)
        base_doc, base_runs = load_runs(args.baseline)
        new_doc, new_runs = load_runs(args.new)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(
        f"baseline: {args.baseline} ({base_doc.get('name', '?')}, "
        f"{len(base_runs)} runs)"
    )
    print(f"new:      {args.new} ({new_doc.get('name', '?')}, "
          f"{len(new_runs)} runs)")
    print(f"gate: work counters +{args.threshold:g}%; wall "
          + (f"gated at -{args.wall_threshold:g}%" if args.gate_wall
             else "informational"))
    if genome_thresholds:
        overrides = ", ".join(
            f"{genome}=+{pct:g}%"
            for genome, pct in sorted(genome_thresholds.items())
        )
        print(f"per-workload overrides: {overrides}")
    print()

    failures = []
    header = (
        f"{'run':<40} {'metric':<16} {'baseline':>14} "
        f"{'new':>14} {'delta%':>9}  verdict"
    )
    print(header)
    print("-" * len(header))

    for key in sorted(base_runs, key=key_str):
        base = base_runs[key]
        label = key_str(key)
        if key not in new_runs:
            failures.append(f"{label}: missing from new report")
            print(f"{label:<40} {'(run)':<16} {'present':>14} "
                  f"{'MISSING':>14} {'':>9}  FAIL")
            continue
        new = new_runs[key]
        threshold = genome_thresholds.get(key[0], args.threshold)

        for metric, get in EXACT_FIELDS:
            b, n = get(base), get(new)
            if b is None or n is None:
                continue  # a bench without the field: nothing to gate
            verdict = "ok" if b == n else "FAIL"
            if b != n:
                failures.append(
                    f"{label}: {metric} changed {b} -> {n} "
                    "(correctness field, must be identical)"
                )
            if b != n:
                print(f"{label:<40} {metric:<16} {b:>14} {n:>14} "
                      f"{'':>9}  {verdict}")

        for metric, get in WORK_COUNTERS:
            b, n = get(base), get(new)
            if b is None or n is None:
                continue
            delta = pct_change(b, n)
            over = delta > threshold
            verdict = "FAIL" if over else "ok"
            if over:
                failures.append(
                    f"{label}: {metric} +{delta:.1f}% "
                    f"({b} -> {n}, threshold +{threshold:g}%)"
                )
            print(f"{label:<40} {metric:<16} {b:>14} {n:>14} "
                  f"{delta:>8.1f}%  {verdict}")

        b_rps = base.get("reads_per_second")
        n_rps = new.get("reads_per_second")
        if isinstance(b_rps, (int, float)) and isinstance(n_rps, (int, float)):
            delta = pct_change(b_rps, n_rps)
            gated = args.gate_wall and delta < -args.wall_threshold
            verdict = "FAIL" if gated else (
                "ok" if args.gate_wall else "info")
            if gated:
                failures.append(
                    f"{label}: reads_per_second {delta:.1f}% "
                    f"({b_rps:.0f} -> {n_rps:.0f}, "
                    f"threshold -{args.wall_threshold:g}%)"
                )
            print(f"{label:<40} {'reads_per_sec':<16} {b_rps:>14.0f} "
                  f"{n_rps:>14.0f} {delta:>8.1f}%  {verdict}")

    extra = sorted(set(new_runs) - set(base_runs), key=key_str)
    if extra:
        print()
        for key in extra:
            print(f"note: {key_str(key)} only in new report (allowed)")

    print()
    if failures:
        print(f"REGRESSIONS ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
