#!/usr/bin/env python3
"""Validate bench BENCH_*.json reports against the bench report schema.

Usage: tools/validate_bench_json.py BENCH_name.json [more.json ...]

Every JSON bench writes one shape through bench/bench_common
(docs/OBSERVABILITY.md, "Bench report schema (version 2)"): a header, a
list of workloads, and a list of runs keyed by
(workload, read_length, k, engine, threads). The checker applies one
header check, one workload check and one run check to every report, then
the coverage rules that BENCHES declares for the report's 'created_by'.
An unknown 'created_by' is rejected.

Generic rules, for every report:
  * required keys and their types at every level; every workload and run
    field is typed once, in WORKLOAD_FIELDS and RUN_FIELDS;
  * run keys are unique and name a declared workload; workload names are
    unique;
  * 'stats' carries every SearchStats field; 'stats' and 'counters' hold
    non-negative integers; histogram buckets sum to 'count';
    latency quantiles satisfy p50 <= p95 <= p99;
  * 'phases' holds the four paper phases (rank, ri_build, merge,
    tree_traversal);
  * engine 'sharded' carries 'num_shards' >= 1, and no other engine does;
  * a run whose counters claim prefix_table_hits > 0 belongs to a workload
    whose prefix_table_q is above 0;
  * within one (workload, read_length, k), the engines of each declared
    'agree' group report the same total_hits.

Exits non-zero listing every violation found. Standard library only.
"""

import json
import sys

SCHEMA_VERSION = 2

UINT = (int,)
NUM = (int, float)

PAPER_PHASES = ("rank", "ri_build", "merge", "tree_traversal")

STATS_FIELDS = ("stree_nodes", "extend_calls", "completed_paths",
                "tau_pruned", "budget_pruned", "mtree_nodes", "mtree_leaves",
                "reused_nodes", "derived_runs")

RANK_KERNELS = ("scalar", "word64", "avx2")

HEADER_FIELDS = {"schema_version": UINT, "name": str, "created_by": str,
                 "smoke": bool, "scale": NUM, "hardware": dict,
                 "workloads": list, "runs": list}

HARDWARE_FIELDS = {"hardware_concurrency": UINT, "metrics_compiled_in": bool,
                   "avx2_available": bool}

# Every field a workload may carry, typed once. Every workload carries
# WORKLOAD_REQUIRED; a declaration's 'workload_fields' requires more.
WORKLOAD_FIELDS = {
    "name": str, "genome_length": UINT, "seed": UINT, "read_count": UINT,
    "prefix_table_q": UINT, "rank_kernel": str, "rank_ns": NUM,
    "rankall_ns": NUM, "index_build_seconds": NUM,
    "index_build_phase_nanos": UINT, "index_bytes": UINT,
    "sharded_index_build_seconds": NUM, "num_shards": UINT,
    "shard_overlap": UINT, "sharded_index_bytes": UINT, "query_count": UINT,
    "distinct_queries": UINT, "zipf_exponent": NUM, "reps": UINT,
    "checkpoint_rate": UINT,
}

WORKLOAD_REQUIRED = ("name", "genome_length", "seed")

RUN_KEY = ("workload", "read_length", "k", "engine", "threads")

# Every field a run may carry, typed once. Every run carries its key and
# 'wall_seconds'; a declaration requires its 'rate' and its 'run_fields'.
RUN_FIELDS = {
    "workload": str, "read_length": UINT, "k": UINT, "engine": str,
    "threads": UINT, "wall_seconds": NUM, "reads_per_second": NUM,
    "calls_per_second": NUM, "total_hits": UINT, "stats": dict,
    "latency_estimate": dict, "phases": dict, "counters": dict,
    "histograms": dict, "num_shards": UINT, "cache_hits": UINT,
    "cache_misses": UINT, "cache_evictions": UINT, "rank_ns": NUM,
    "rankall_ns": NUM, "iters": UINT,
}

BIDIR_ENGINES = ("bidirectional", "algorithm_a", "stree")
REUSE_ENGINES = ("batch_off", "batch_cache", "sharded_off", "sharded_cache")

# Per-bench declarations. Keys:
#   rate              the rate field every run carries
#   run_fields        run fields every run must carry
#   workload_fields   workload fields every workload must carry
#   engines           the only engines allowed (absent: any)
#   required_engines  engines that must appear somewhere
#   complete_cells    every (workload, read_length, k) holds every
#                     required engine
#   fixed             run fields with one allowed value
#   positive          run fields that must be above 0
#   multiple_of       workload fields that must be positive multiples
#   min_distinct      run key fields with a floor on their distinct values
#   agree             engine groups that answer the same question
BENCHES = {
    "bench_report": {
        "rate": "reads_per_second",
        "run_fields": ("total_hits", "stats", "latency_estimate", "phases",
                       "counters", "histograms"),
        "workload_fields": ("read_count", "index_build_seconds",
                            "index_build_phase_nanos", "index_bytes",
                            "rank_ns", "rankall_ns", "rank_kernel",
                            "prefix_table_q"),
        "required_engines": ("algorithm_a", "batch"),
        "min_distinct": {"workload": 2, "k": 3},
        "agree": (("stree", "algorithm_a", "batch", "sharded"),),
    },
    "bench_bidir": {
        "rate": "reads_per_second",
        "run_fields": ("total_hits", "stats"),
        "workload_fields": ("read_count", "prefix_table_q"),
        "engines": BIDIR_ENGINES,
        "required_engines": BIDIR_ENGINES,
        "complete_cells": True,
        "fixed": {"threads": 1},
        "positive": ("read_length",),
        "min_distinct": {"read_length": 2, "k": 3},
        "agree": (BIDIR_ENGINES,),
    },
    "bench_reuse": {
        "rate": "reads_per_second",
        "run_fields": ("total_hits", "stats", "cache_hits", "cache_misses",
                       "cache_evictions"),
        "workload_fields": ("query_count", "distinct_queries", "reps",
                            "num_shards"),
        "engines": REUSE_ENGINES,
        "required_engines": REUSE_ENGINES,
        "fixed": {"threads": 1},
        "agree": (REUSE_ENGINES,),
    },
    "bench_rank_kernel": {
        "rate": "calls_per_second",
        "run_fields": ("rank_ns", "rankall_ns", "iters"),
        "workload_fields": ("checkpoint_rate",),
        "engines": RANK_KERNELS,
        "required_engines": ("scalar", "word64"),
        "fixed": {"read_length": 0, "k": 0},
        "positive": ("rank_ns", "rankall_ns", "iters"),
        "multiple_of": {"checkpoint_rate": 32},
        "min_distinct": {"workload": 3},
    },
}


def is_uint(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Validator:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def error(self, where, message):
        self.errors.append(f"{self.path}: {where}: {message}")

    def check_types(self, obj, where, fields, required):
        """Types every field of `fields` that obj carries and reports each
        name in `required` that it lacks; True if nothing was wrong."""
        ok = True
        for key in required:
            if key not in obj:
                self.error(where, f"missing required key '{key}'")
                ok = False
        for key, types in fields.items():
            if key not in obj:
                continue
            value = obj[key]
            allowed = types if isinstance(types, tuple) else (types,)
            if not isinstance(value, allowed) or (
                    isinstance(value, bool) and bool not in allowed):
                names = "/".join(t.__name__ for t in allowed)
                self.error(where, f"'{key}' must be {names}, "
                                  f"got {type(value).__name__}")
                ok = False
            elif allowed in (UINT, NUM) and value < 0:
                self.error(where, f"'{key}' must be non-negative")
                ok = False
        return ok

    def check_uint_map(self, obj, where):
        for key, value in obj.items():
            if not is_uint(value):
                self.error(where, f"'{key}' must be a non-negative integer")

    def check_phases(self, phases, where):
        for name, entry in phases.items():
            if not isinstance(entry, dict) or not all(
                    is_uint(entry.get(f)) for f in ("nanos", "calls")):
                self.error(f"{where}.{name}",
                           "must be {nanos, calls} of non-negative integers")
                continue
            extra = set(entry) - {"nanos", "calls", "estimated"}
            if extra:
                self.error(f"{where}.{name}", f"unexpected keys {sorted(extra)}")
            self.check_estimated(entry, f"{where}.{name}")
        missing = [p for p in PAPER_PHASES if p not in phases]
        if missing:
            self.error(where, f"missing paper phases {missing}")

    def check_histograms(self, hists, where):
        for name, entry in hists.items():
            hwhere = f"{where}.{name}"
            if not isinstance(entry, dict) or not all(
                    is_uint(entry.get(f)) for f in ("count", "sum")):
                self.error(hwhere, "must carry non-negative 'count' and 'sum'")
                continue
            buckets = entry.get("buckets")
            if not isinstance(buckets, list):
                self.error(hwhere, "'buckets' must be an array")
                continue
            total = 0
            for i, pair in enumerate(buckets):
                if (not isinstance(pair, list) or len(pair) != 2
                        or not all(is_uint(x) for x in pair) or pair[0] > 64):
                    self.error(hwhere, f"buckets[{i}] must be [index <= 64, count]")
                    continue
                total += pair[1]
            if total != entry["count"]:
                self.error(hwhere, f"bucket counts sum to {total}, "
                                   f"'count' says {entry['count']}")

    def check_estimated(self, entry, where):
        if not isinstance(entry.get("estimated", False), bool):
            self.error(where, "'estimated' must be a boolean")

    def check_latency(self, entry, where):
        fields = ("p50_nanos", "p95_nanos", "p99_nanos", "samples")
        if not all(is_uint(entry.get(f)) for f in fields):
            self.error(where, f"{list(fields)} must be non-negative integers")
            return
        self.check_estimated(entry, where)
        quantiles = [entry[f] for f in fields[:3]]
        if quantiles != sorted(quantiles):
            self.error(where, "quantiles must be non-decreasing "
                              f"(p50 <= p95 <= p99), got {quantiles}")

    def check_run(self, run, where, decl, workloads):
        required = (RUN_KEY + ("wall_seconds", decl["rate"])
                    + decl.get("run_fields", ()))
        if not self.check_types(run, where, RUN_FIELDS, required):
            return False
        if run["workload"] not in workloads:
            self.error(where, f"workload '{run['workload']}' is not declared")
        engines = decl.get("engines")
        if engines is not None and run["engine"] not in engines:
            self.error(where, f"engine '{run['engine']}' not one of {list(engines)}")
        for field, value in decl.get("fixed", {}).items():
            if run[field] != value:
                self.error(where, f"'{field}' must be {value}")
        for field in decl.get("positive", ()):
            if isinstance(run.get(field), (int, float)) and run[field] <= 0:
                self.error(where, f"'{field}' must be positive")
        if isinstance(run.get("stats"), dict):
            missing = [f for f in STATS_FIELDS if f not in run["stats"]]
            if missing:
                self.error(f"{where}.stats", f"missing fields {missing}")
            self.check_uint_map(run["stats"], f"{where}.stats")
        if isinstance(run.get("counters"), dict):
            self.check_uint_map(run["counters"], f"{where}.counters")
            hits = run["counters"].get("prefix_table_hits", 0)
            if is_uint(hits) and hits > 0 and not workloads.get(
                    run["workload"], {}).get("prefix_table_q"):
                self.error(f"{where}.counters",
                           f"prefix_table_hits is {hits} but workload "
                           f"'{run['workload']}' declares no prefix table")
        if isinstance(run.get("phases"), dict):
            self.check_phases(run["phases"], f"{where}.phases")
        if isinstance(run.get("histograms"), dict):
            self.check_histograms(run["histograms"], f"{where}.histograms")
        if isinstance(run.get("latency_estimate"), dict):
            self.check_latency(run["latency_estimate"],
                               f"{where}.latency_estimate")
        if run["engine"] == "sharded":
            if not is_uint(run.get("num_shards")) or run["num_shards"] < 1:
                self.error(where, "engine 'sharded' requires 'num_shards' >= 1")
        elif "num_shards" in run:
            self.error(where, "'num_shards' is only valid on engine 'sharded'")
        return True

    def check_workloads(self, doc, decl):
        workloads = {}
        for i, workload in enumerate(doc["workloads"]):
            where = f"$.workloads[{i}]"
            if not isinstance(workload, dict):
                self.error(where, "must be an object")
                continue
            required = WORKLOAD_REQUIRED + decl.get("workload_fields", ())
            self.check_types(workload, where, WORKLOAD_FIELDS, required)
            if not isinstance(workload.get("name"), str):
                continue
            for field, step in decl.get("multiple_of", {}).items():
                value = workload.get(field)
                if is_uint(value) and (value == 0 or value % step):
                    self.error(where, f"'{field}' {value} must be a positive "
                                      f"multiple of {step}")
            kernel = workload.get("rank_kernel")
            if kernel is not None and kernel not in RANK_KERNELS:
                self.error(where, f"rank_kernel '{kernel}' not one of "
                                  f"{list(RANK_KERNELS)}")
            if workload["name"] in workloads:
                self.error(where, f"duplicate workload '{workload['name']}'")
            workloads[workload["name"]] = workload
        return workloads

    def check_coverage(self, runs, decl):
        engines = {r["engine"] for r in runs}
        for engine in decl.get("required_engines", ()):
            if engine not in engines:
                self.error("$.runs", f"engine '{engine}' missing")
        for field, floor in decl.get("min_distinct", {}).items():
            values = {r[field] for r in runs}
            if len(values) < floor:
                self.error("$.runs", f"need >= {floor} distinct {field} "
                                     f"values, got {sorted(values)}")
        cells = {}
        for run in runs:
            cell = (run["workload"], run["read_length"], run["k"])
            cells.setdefault(cell, {})[run["engine"]] = run.get("total_hits")
        for cell, hits in sorted(cells.items()):
            label = f"workload '{cell[0]}' read_length={cell[1]} k={cell[2]}"
            if decl.get("complete_cells"):
                missing = [e for e in decl["required_engines"] if e not in hits]
                if missing:
                    self.error("$.runs", f"{label} lacks engines {missing}")
            for group in decl.get("agree", ()):
                answers = {e: hits[e] for e in group if e in hits}
                if len(set(answers.values())) > 1:
                    self.error("$.runs", f"{label}: total_hits disagree "
                                         f"across {answers}")

    def validate(self, doc):
        if not isinstance(doc, dict):
            self.error("$", "top level must be an object")
            return
        if not self.check_types(doc, "$", HEADER_FIELDS, HEADER_FIELDS):
            return
        if doc["schema_version"] != SCHEMA_VERSION:
            self.error("$", f"unsupported schema_version {doc['schema_version']}")
        decl = BENCHES.get(doc["created_by"])
        if decl is None:
            self.error("$", f"unknown created_by '{doc['created_by']}' "
                            f"(known: {sorted(BENCHES)})")
            return
        self.check_types(doc["hardware"], "$.hardware", HARDWARE_FIELDS,
                         HARDWARE_FIELDS)
        workloads = self.check_workloads(doc, decl)
        runs = []
        seen = set()
        for i, run in enumerate(doc["runs"]):
            where = f"$.runs[{i}]"
            if not isinstance(run, dict):
                self.error(where, "must be an object")
                continue
            if not self.check_run(run, where, decl, workloads):
                continue
            key = tuple(run[f] for f in RUN_KEY)
            if key in seen:
                self.error(where, f"duplicate run key {key}")
            seen.add(key)
            runs.append(run)
        self.check_coverage(runs, decl)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        validator = Validator(path)
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"FAIL {path}: {e}", file=sys.stderr)
            failed = True
            continue
        validator.validate(doc)
        if validator.errors:
            failed = True
            print(f"FAIL {path}: {len(validator.errors)} error(s)", file=sys.stderr)
            for err in validator.errors:
                print(f"  {err}", file=sys.stderr)
        else:
            print(f"OK {path}: {doc['created_by']}, "
                  f"{len(doc['workloads'])} workloads, {len(doc['runs'])} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
