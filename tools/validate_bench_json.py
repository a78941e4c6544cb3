#!/usr/bin/env python3
"""Validate a bench BENCH_*.json file against the documented schema.

Usage: tools/validate_bench_json.py BENCH_name.json [more.json ...]

Dispatches on the file's 'created_by' field:

bench_report (the default): checks the schema described in
docs/OBSERVABILITY.md (schema_version 1) — required keys and types at
every level, plus the grid-coverage floor from the experiment pipeline
(at least 2 distinct genomes, at least 3 distinct k values, and both a
serial engine (algorithm_a) and the batch engine) and that every run
reports the four paper phases (rank, ri_build, merge, tree_traversal).
The per-run 'latency_estimate' object (p50/p95/p99 nanoseconds derived
from the log2 query-latency histogram) is optional — older reports
predate it — but when present its quantiles must be non-negative
integers in non-decreasing order (p50 <= p95 <= p99).
The index-configuration fields 'rank_kernel' / 'prefix_table_q' on genome
entries are optional (older reports predate them) but type-checked when
present, and a run whose counters claim prefix_table_hits > 0 while its
genome reports no prefix table is rejected — the counters must agree with
the configuration that allegedly produced them.
Reports produced with --shards N carry optional sharding fields: genome
entries gain 'sharded_index_build_seconds' / 'num_shards' /
'shard_overlap' / 'sharded_index_bytes', and every run with engine
'sharded' must declare 'num_shards' >= 1 (other runs must not carry it).
All are type-checked when present.

bench_rank_kernel: checks the kernel-comparison schema — a 'measurements'
array of {checkpoint_rate, kernel, rank_ns, rankall_ns, iters} covering
at least 3 distinct checkpoint rates and at least the two always-available
kernels (scalar, word64). The grid floor does not apply.

bench_bidir: checks the head-to-head engine-grid schema
(docs/BIDIRECTIONAL.md) — a 'workload' object plus 'runs' whose engine is
bidirectional, algorithm_a, or stree, all single-threaded by design:
total_hits for one (genome, k) cell (the genome name carries the read
length, e.g. "synth-1M/m100") must agree across all three engines — the
scheme search is only reportable when it returns the enumeration
engines' answer — and every cell must carry all three. The grid must
cover at least 2 distinct read lengths and at least 3 distinct k values.

bench_reuse: checks the reuse-tier schema — a 'workload' object, a
'cross_validation' object whose 'byte_identical' must be true (the bench
aborts before writing a report otherwise, so a false value means the file
was hand-edited), and 'runs' whose engine is one of the four reuse configs
(batch_off, batch_cache, sharded_off, sharded_cache). Timed reuse runs are
single-threaded by design (a row times the reuse tier, not the pool), so
every run must declare threads == 1; total_hits for one (genome, k) cell
must agree across all four configs, and all four must appear. The
'aggregate' object must carry the three headline ratios.

Exits non-zero listing every violation found.

Standard library only; no third-party schema packages.
"""

import json
import sys

UINT = (int,)
NUM = (int, float)

PAPER_PHASES = ("rank", "ri_build", "merge", "tree_traversal")

STATS_FIELDS = (
    "stree_nodes",
    "extend_calls",
    "completed_paths",
    "tau_pruned",
    "budget_pruned",
    "mtree_nodes",
    "mtree_leaves",
    "reused_nodes",
    "derived_runs",
)

GENOME_FIELDS = {
    "name": str,
    "length": UINT,
    "seed": UINT,
    "index_build_seconds": NUM,
    "index_build_phase_nanos": UINT,
    "index_bytes": UINT,
    "rank_ns": NUM,
    "rankall_ns": NUM,
}

# Optional genome keys: absent from reports produced before the prefix
# table / rank kernel / sharding work, type-checked when present.
GENOME_OPTIONAL_FIELDS = {
    "rank_kernel": str,
    "prefix_table_q": UINT,
    "sharded_index_build_seconds": NUM,
    "num_shards": UINT,
    "shard_overlap": UINT,
    "sharded_index_bytes": UINT,
}

RANK_KERNELS = ("scalar", "word64", "avx2")

MEASUREMENT_FIELDS = {
    "checkpoint_rate": UINT,
    "kernel": str,
    "rank_ns": NUM,
    "rankall_ns": NUM,
    "iters": UINT,
}

REUSE_ENGINES = (
    "batch_off",
    "batch_cache",
    "sharded_off",
    "sharded_cache",
)

# A bench_reuse run: one (workload, k, reuse-configuration) cell. The
# 'engine' field carries the reuse configuration so the bench_diff match
# key (genome, k, engine, threads) stays unique per cell; 'threads' is 1
# by design (a row times the reuse tier, not the pool).
REUSE_RUN_FIELDS = {
    "genome": str,
    "genome_length": UINT,
    "read_length": UINT,
    "read_count": UINT,
    "distinct_queries": UINT,
    "k": UINT,
    "engine": str,
    "threads": UINT,
    "reps": UINT,
    "wall_seconds": NUM,
    "reads_per_second": NUM,
    "total_hits": UINT,
    "cache_hits": UINT,
    "cache_misses": UINT,
    "cache_evictions": UINT,
    "stats": dict,
}

BIDIR_ENGINES = ("bidirectional", "algorithm_a", "stree")

# A bench_bidir run: one engine of one (read length, k) cell of the
# head-to-head grid behind AutoPickEngine. 'threads' is 1 for all three
# engines (the comparison is single-threaded by design); the genome name
# encodes the read length so the bench_diff match key
# (genome, k, engine, threads) stays unique per cell.
BIDIR_RUN_FIELDS = {
    "genome": str,
    "genome_length": UINT,
    "read_length": UINT,
    "read_count": UINT,
    "k": UINT,
    "engine": str,
    "threads": UINT,
    "wall_seconds": NUM,
    "reads_per_second": NUM,
    "total_hits": UINT,
    "stats": dict,
}

RUN_FIELDS = {
    "genome": str,
    "genome_length": UINT,
    "read_length": UINT,
    "read_count": UINT,
    "k": UINT,
    "engine": str,
    "threads": UINT,
    "wall_seconds": NUM,
    "reads_per_second": NUM,
    "total_hits": UINT,
    "stats": dict,
    "phases": dict,
    "counters": dict,
    "histograms": dict,
}


class Validator:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def error(self, where, message):
        self.errors.append(f"{self.path}: {where}: {message}")

    def require(self, obj, where, fields):
        """Checks required keys and their types; returns True if all present."""
        ok = True
        for key, types in fields.items():
            if key not in obj:
                self.error(where, f"missing required key '{key}'")
                ok = False
            elif not isinstance(obj[key], types):
                type_names = (
                    types.__name__
                    if isinstance(types, type)
                    else "/".join(t.__name__ for t in types)
                )
                self.error(
                    where,
                    f"'{key}' must be {type_names}, "
                    f"got {type(obj[key]).__name__}",
                )
                ok = False
        return ok

    def check_nonneg_int_map(self, obj, where):
        for key, value in obj.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                self.error(where, f"'{key}' must be a non-negative integer")

    def check_phases(self, phases, where):
        for name, entry in phases.items():
            pwhere = f"{where}.{name}"
            if not isinstance(entry, dict):
                self.error(pwhere, "phase entry must be an object")
                continue
            for field in ("nanos", "calls"):
                v = entry.get(field)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    self.error(pwhere, f"'{field}' must be a non-negative integer")
            extra = set(entry) - {"nanos", "calls", "estimated"}
            if extra:
                self.error(pwhere, f"unexpected keys {sorted(extra)}")
            if "estimated" in entry and not isinstance(entry["estimated"], bool):
                self.error(pwhere, "'estimated' must be a boolean")
        missing = [p for p in PAPER_PHASES if p not in phases]
        if missing:
            self.error(where, f"missing paper phases {missing}")

    def check_histograms(self, hists, where):
        for name, entry in hists.items():
            hwhere = f"{where}.{name}"
            if not isinstance(entry, dict):
                self.error(hwhere, "histogram entry must be an object")
                continue
            for field in ("count", "sum"):
                v = entry.get(field)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    self.error(hwhere, f"'{field}' must be a non-negative integer")
            buckets = entry.get("buckets")
            if not isinstance(buckets, list):
                self.error(hwhere, "'buckets' must be an array")
                continue
            total = 0
            for i, pair in enumerate(buckets):
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(isinstance(x, int) and x >= 0 for x in pair)
                ):
                    self.error(hwhere, f"buckets[{i}] must be [index, count]")
                    continue
                if pair[0] > 64:
                    self.error(hwhere, f"buckets[{i}] index {pair[0]} > 64")
                total += pair[1]
            if isinstance(entry.get("count"), int) and total != entry["count"]:
                self.error(
                    hwhere,
                    f"bucket counts sum to {total}, 'count' says {entry['count']}",
                )

    def check_latency_estimate(self, entry, where):
        if not isinstance(entry, dict):
            self.error(where, "must be an object")
            return
        quantiles = []
        for field in ("p50_nanos", "p95_nanos", "p99_nanos", "samples"):
            v = entry.get(field)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                self.error(where, f"'{field}' must be a non-negative integer")
                return
            if field != "samples":
                quantiles.append(v)
        if "estimated" in entry and not isinstance(entry["estimated"], bool):
            self.error(where, "'estimated' must be a boolean")
        if quantiles != sorted(quantiles):
            self.error(
                where,
                f"quantiles must be non-decreasing (p50 <= p95 <= p99), "
                f"got {quantiles}",
            )

    def check_run(self, run, where):
        if not self.require(run, where, RUN_FIELDS):
            return
        if "latency_estimate" in run:
            self.check_latency_estimate(
                run["latency_estimate"], f"{where}.latency_estimate"
            )
        missing_stats = [f for f in STATS_FIELDS if f not in run["stats"]]
        if missing_stats:
            self.error(f"{where}.stats", f"missing fields {missing_stats}")
        self.check_nonneg_int_map(run["stats"], f"{where}.stats")
        self.check_nonneg_int_map(run["counters"], f"{where}.counters")
        self.check_phases(run["phases"], f"{where}.phases")
        self.check_histograms(run["histograms"], f"{where}.histograms")
        if run.get("wall_seconds", 0) < 0:
            self.error(where, "'wall_seconds' must be non-negative")
        # Sharded runs must say how many shards; no other run may claim to.
        num_shards = run.get("num_shards")
        if run.get("engine") == "sharded":
            if not isinstance(num_shards, int) or isinstance(num_shards, bool) or num_shards < 1:
                self.error(where, "engine 'sharded' requires 'num_shards' >= 1")
        elif num_shards is not None:
            self.error(where, "'num_shards' is only valid on engine 'sharded'")

    def validate(self, doc):
        if not isinstance(doc, dict):
            self.error("$", "top level must be an object")
            return
        if doc.get("created_by") == "bench_rank_kernel":
            self.validate_rank_kernel(doc)
            return
        if doc.get("created_by") == "bench_bidir":
            self.validate_bidir(doc)
            return
        if doc.get("created_by") == "bench_reuse":
            self.validate_reuse(doc)
            return
        self.validate_report(doc)

    def validate_reuse(self, doc):
        self.require(
            doc,
            "$",
            {
                "schema_version": UINT,
                "name": str,
                "created_by": str,
                "smoke": bool,
                "scale": NUM,
                "hardware": dict,
                "workload": dict,
                "cross_validation": dict,
                "runs": list,
                "aggregate": dict,
            },
        )
        if doc.get("schema_version") != 1:
            self.error("$", f"unsupported schema_version {doc.get('schema_version')}")

        hardware = doc.get("hardware", {})
        if isinstance(hardware, dict):
            self.require(
                hardware,
                "$.hardware",
                {"hardware_concurrency": UINT, "metrics_compiled_in": bool},
            )

        workload = doc.get("workload", {})
        if isinstance(workload, dict):
            self.require(
                workload,
                "$.workload",
                {
                    "genome": str,
                    "genome_length": UINT,
                    "read_length": UINT,
                    "query_count": UINT,
                    "zipf_distinct": UINT,
                    "zipf_exponent": NUM,
                    "reps": UINT,
                    "timed_threads": UINT,
                    "num_shards": UINT,
                },
            )

        # The grid is the acceptance gate: the bench refuses to write a
        # report whose reuse-on hits diverge from reuse-off, so a committed
        # file claiming anything but byte_identical == true is corrupt.
        grid = doc.get("cross_validation", {})
        if isinstance(grid, dict):
            if self.require(
                grid,
                "$.cross_validation",
                {"cells": UINT, "byte_identical": bool, "max_k": UINT,
                 "engines": list},
            ):
                if grid["cells"] < 1:
                    self.error("$.cross_validation", "'cells' must be >= 1")
                if not grid["byte_identical"]:
                    self.error(
                        "$.cross_validation",
                        "'byte_identical' must be true (the bench refuses "
                        "to write divergent results)",
                    )

        # total_hits for a given (genome, k) must agree across every reuse
        # configuration: cache and sharded dispatch are both
        # byte-identity contracts, so a divergence means the answer changed.
        hits_by_cell = {}
        engines = set()
        for i, run in enumerate(doc.get("runs", [])):
            where = f"$.runs[{i}]"
            if not isinstance(run, dict):
                self.error(where, "must be an object")
                continue
            if not self.require(run, where, REUSE_RUN_FIELDS):
                continue
            if run["engine"] not in REUSE_ENGINES:
                self.error(
                    where,
                    f"engine '{run['engine']}' not one of {list(REUSE_ENGINES)}",
                )
                continue
            if run["threads"] != 1:
                self.error(
                    where,
                    "'threads' must be 1 (timed reuse runs are "
                    "single-threaded by design)",
                )
            if run["wall_seconds"] < 0:
                self.error(where, "'wall_seconds' must be non-negative")
            for field in STATS_FIELDS:
                value = run["stats"].get(field)
                if not isinstance(value, int) or isinstance(value, bool):
                    self.error(
                        f"{where}.stats",
                        f"'{field}' must be a non-negative integer",
                    )
            engines.add(run["engine"])
            cell = (run["genome"], run["k"])
            if cell in hits_by_cell and hits_by_cell[cell] != run["total_hits"]:
                self.error(
                    where,
                    f"total_hits {run['total_hits']} disagrees with another "
                    f"run of genome '{cell[0]}' k={cell[1]} "
                    f"({hits_by_cell[cell]}) — reuse must not change the "
                    "answer",
                )
            hits_by_cell.setdefault(cell, run["total_hits"])
        missing = [e for e in REUSE_ENGINES if e not in engines]
        if missing:
            self.error("$.runs", f"missing reuse configurations {missing}")

        aggregate = doc.get("aggregate", {})
        if isinstance(aggregate, dict):
            self.require(
                aggregate,
                "$.aggregate",
                {
                    "zipf_speedup_full": NUM,
                    "unique_ratio_full": NUM,
                    "zipf_speedup_sharded": NUM,
                },
            )

    def validate_bidir(self, doc):
        self.require(
            doc,
            "$",
            {
                "schema_version": UINT,
                "name": str,
                "created_by": str,
                "smoke": bool,
                "scale": NUM,
                "hardware": dict,
                "workload": dict,
                "runs": list,
            },
        )
        if doc.get("schema_version") != 1:
            self.error("$", f"unsupported schema_version {doc.get('schema_version')}")

        hardware = doc.get("hardware", {})
        if isinstance(hardware, dict):
            self.require(
                hardware,
                "$.hardware",
                {"hardware_concurrency": UINT, "metrics_compiled_in": bool},
            )

        workload = doc.get("workload", {})
        if isinstance(workload, dict):
            self.require(
                workload,
                "$.workload",
                {
                    "genome": str,
                    "genome_length": UINT,
                    "read_count": UINT,
                    "prefix_table_q": UINT,
                },
            )

        # total_hits for a given (genome, k) cell — the genome name carries
        # the read length — must agree across all three engines: a
        # divergence means the scheme search changed the answer, which the
        # bench itself is supposed to refuse before writing.
        hits_by_cell = {}
        engines_by_cell = {}
        read_lengths = set()
        k_values = set()
        engines = set()
        for i, run in enumerate(doc.get("runs", [])):
            where = f"$.runs[{i}]"
            if not isinstance(run, dict):
                self.error(where, "must be an object")
                continue
            if not self.require(run, where, BIDIR_RUN_FIELDS):
                continue
            if run["engine"] not in BIDIR_ENGINES:
                self.error(
                    where,
                    f"engine '{run['engine']}' not one of {list(BIDIR_ENGINES)}",
                )
                continue
            if run["threads"] != 1:
                self.error(
                    where,
                    "'threads' must be 1 (the comparison is single-threaded)",
                )
            if run["wall_seconds"] < 0:
                self.error(where, "'wall_seconds' must be non-negative")
            if run["read_length"] < 1:
                self.error(where, "'read_length' must be >= 1")
            for field in STATS_FIELDS:
                value = run["stats"].get(field)
                if not isinstance(value, int) or isinstance(value, bool):
                    self.error(
                        f"{where}.stats",
                        f"'{field}' must be a non-negative integer",
                    )
            engines.add(run["engine"])
            read_lengths.add(run["read_length"])
            k_values.add(run["k"])
            cell = (run["genome"], run["k"])
            if cell in hits_by_cell and hits_by_cell[cell] != run["total_hits"]:
                self.error(
                    where,
                    f"total_hits {run['total_hits']} disagrees with another "
                    f"run of genome '{cell[0]}' k={cell[1]} "
                    f"({hits_by_cell[cell]}) — the scheme search must "
                    "return the enumeration engines' answer",
                )
            hits_by_cell.setdefault(cell, run["total_hits"])
            engines_by_cell.setdefault(cell, set()).add(run["engine"])
        for engine in BIDIR_ENGINES:
            if engine not in engines:
                self.error("$.runs", f"engine '{engine}' missing (always runs)")
        for cell, cell_engines in sorted(engines_by_cell.items()):
            if len(cell_engines) != len(BIDIR_ENGINES):
                self.error(
                    "$.runs",
                    f"cell genome '{cell[0]}' k={cell[1]} lacks one of "
                    f"{list(BIDIR_ENGINES)} — every cell is a triple",
                )
        if len(read_lengths) < 2:
            self.error(
                "$.runs",
                f"need >= 2 distinct read lengths, got {sorted(read_lengths)}",
            )
        if len(k_values) < 3:
            self.error(
                "$.runs",
                f"need >= 3 distinct k values, got {sorted(k_values)}",
            )

    def validate_rank_kernel(self, doc):
        self.require(
            doc,
            "$",
            {
                "schema_version": UINT,
                "name": str,
                "created_by": str,
                "smoke": bool,
                "scale": NUM,
                "hardware": dict,
                "genome_length": UINT,
                "measurements": list,
            },
        )
        if doc.get("schema_version") != 1:
            self.error("$", f"unsupported schema_version {doc.get('schema_version')}")

        hardware = doc.get("hardware", {})
        if isinstance(hardware, dict):
            self.require(
                hardware,
                "$.hardware",
                {
                    "hardware_concurrency": UINT,
                    "metrics_compiled_in": bool,
                    "avx2_available": bool,
                },
            )

        rates = set()
        kernels = set()
        for i, m in enumerate(doc.get("measurements", [])):
            where = f"$.measurements[{i}]"
            if not isinstance(m, dict):
                self.error(where, "must be an object")
                continue
            if not self.require(m, where, MEASUREMENT_FIELDS):
                continue
            if m["kernel"] not in RANK_KERNELS:
                self.error(
                    where,
                    f"kernel '{m['kernel']}' not one of {list(RANK_KERNELS)}",
                )
            if m["checkpoint_rate"] <= 0 or m["checkpoint_rate"] % 32 != 0:
                self.error(
                    where,
                    f"checkpoint_rate {m['checkpoint_rate']} must be a "
                    "positive multiple of 32",
                )
            for field in ("rank_ns", "rankall_ns"):
                if m[field] <= 0:
                    self.error(where, f"'{field}' must be positive")
            if m["iters"] <= 0:
                self.error(where, "'iters' must be positive")
            rates.add(m["checkpoint_rate"])
            kernels.add(m["kernel"])
        if len(rates) < 3:
            self.error(
                "$.measurements",
                f"need >= 3 distinct checkpoint rates, got {sorted(rates)}",
            )
        for required_kernel in ("scalar", "word64"):
            if required_kernel not in kernels:
                self.error(
                    "$.measurements",
                    f"kernel '{required_kernel}' missing (always available)",
                )

    def validate_report(self, doc):
        self.require(
            doc,
            "$",
            {
                "schema_version": UINT,
                "name": str,
                "created_by": str,
                "smoke": bool,
                "scale": NUM,
                "hardware": dict,
                "grid": dict,
                "genomes": list,
                "runs": list,
            },
        )
        if doc.get("schema_version") != 1:
            self.error("$", f"unsupported schema_version {doc.get('schema_version')}")

        hardware = doc.get("hardware", {})
        if isinstance(hardware, dict):
            self.require(
                hardware,
                "$.hardware",
                {"hardware_concurrency": UINT, "metrics_compiled_in": bool},
            )

        grid = doc.get("grid", {})
        if isinstance(grid, dict):
            self.require(
                grid,
                "$.grid",
                {
                    "genomes": list,
                    "k_values": list,
                    "engines": list,
                    "read_length": UINT,
                    "read_count": UINT,
                    "batch_threads": UINT,
                },
            )

        genome_prefix_q = {}  # genome name -> declared prefix_table_q
        for i, genome in enumerate(doc.get("genomes", [])):
            where = f"$.genomes[{i}]"
            if not isinstance(genome, dict):
                self.error(where, "must be an object")
                continue
            self.require(genome, where, GENOME_FIELDS)
            for key, types in GENOME_OPTIONAL_FIELDS.items():
                if key in genome and not isinstance(genome[key], types):
                    self.error(
                        where,
                        f"optional '{key}' must be "
                        f"{types.__name__ if isinstance(types, type) else '/'.join(t.__name__ for t in types)}, "
                        f"got {type(genome[key]).__name__}",
                    )
            kernel = genome.get("rank_kernel")
            if isinstance(kernel, str) and kernel not in RANK_KERNELS:
                self.error(
                    where,
                    f"rank_kernel '{kernel}' not one of {list(RANK_KERNELS)}",
                )
            if isinstance(genome.get("name"), str):
                q = genome.get("prefix_table_q")
                genome_prefix_q[genome["name"]] = q if isinstance(q, int) else 0

        runs = doc.get("runs", [])
        for i, run in enumerate(runs):
            where = f"$.runs[{i}]"
            if not isinstance(run, dict):
                self.error(where, "must be an object")
                continue
            self.check_run(run, where)
            # Counter/configuration cross-check: a run cannot claim prefix
            # table hits when its genome's index declared no table.
            counters = run.get("counters")
            if isinstance(counters, dict):
                hits = counters.get("prefix_table_hits")
                declared_q = genome_prefix_q.get(run.get("genome"), 0)
                if isinstance(hits, int) and hits > 0 and not declared_q:
                    self.error(
                        f"{where}.counters",
                        f"prefix_table_hits is {hits} but genome "
                        f"'{run.get('genome')}' declares no prefix table "
                        "(prefix_table_q is 0 or missing)",
                    )

        # Grid-coverage floor (the ISSUE's acceptance grid).
        run_dicts = [r for r in runs if isinstance(r, dict)]
        genomes = {r.get("genome") for r in run_dicts if "genome" in r}
        k_values = {r.get("k") for r in run_dicts if "k" in r}
        engines = {r.get("engine") for r in run_dicts if "engine" in r}
        if len(genomes) < 2:
            self.error("$.runs", f"need >= 2 distinct genomes, got {sorted(genomes)}")
        if len(k_values) < 3:
            self.error("$.runs", f"need >= 3 distinct k values, got {sorted(k_values)}")
        for required_engine in ("algorithm_a", "batch"):
            if required_engine not in engines:
                self.error("$.runs", f"engine '{required_engine}' missing from grid")


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
            if doc.get("created_by") == "bench_rank_kernel":
                n = len(doc.get("measurements", []))
                print(f"OK {path}: schema_version 1, {n} measurements")
            else:
                n_runs = len(doc.get("runs", []))
                print(f"OK {path}: schema_version 1, {n_runs} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
