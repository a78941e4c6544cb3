#!/usr/bin/env python3
"""Validate /metrics (Prometheus text) and /varz.json scrapes from the
serving tier's telemetry listener (serve::HttpExpositionServer).

Usage:
  tools/validate_exposition.py --metrics SCRAPE.txt [--metrics SCRAPE2.txt]
                               [--varz VARZ.json [--varz VARZ2.json]]

Checks, against the conventions documented in docs/OBSERVABILITY.md
("Live telemetry"):

/metrics scrapes:
  * every non-comment line is `name[{labels}] value` with a metric name
    matching the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]* and the
    library's `bwtk_` prefix;
  * every sample is preceded by # HELP and # TYPE lines for its family,
    and the TYPE is one of counter/gauge/histogram;
  * counter family names end in `_total` (histogram families exempt:
    their _bucket/_sum/_count series follow the histogram convention);
  * sample values parse as floats; histogram `le` buckets within a series
    are cumulative (non-decreasing);
  * when two or more --metrics files are given (scrapes of the SAME
    process, oldest first), every counter-typed series must be monotone
    non-decreasing across scrapes — a decrease means the process restarted
    mid-check or a counter went backwards, both scrape-smoke failures.

/varz.json scrapes:
  * the document parses and carries the stable top-level keys (ready,
    engine, session, cumulative, windows);
  * every standard window (10s/1m/5m) reports seconds/counters/rates/
    latency, and each latency entry's quantiles are non-decreasing
    (p50 <= p95 <= p99);
  * session counters are non-negative integers; with two scrapes the
    monotone fields (submitted, completed, ...) must not decrease.

Exits non-zero listing every violation found. Standard library only.
"""

import argparse
import json
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LINE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
                     r"(?:\{(?P<labels>[^}]*)\})?"
                     r" (?P<value>\S+)$")
VALID_TYPES = ("counter", "gauge", "histogram")
WINDOWS = ("10s", "1m", "5m")
SESSION_MONOTONE = ("submitted", "completed", "rejected_overloaded",
                    "rejected_unavailable", "result_cache_hits",
                    "result_cache_misses", "shard_exact_shortcuts")


class Violations:
    def __init__(self):
        self.items = []

    def add(self, where, message):
        self.items.append(f"{where}: {message}")


def family_of(name):
    """The metric family a sample series belongs to (histogram series
    share one family across their _bucket/_sum/_count suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_metrics(path, v):
    """Returns {(name, labels) -> float} plus {family -> type}."""
    samples = {}
    types = {}
    helps = set()
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        v.add(path, f"unreadable: {error}")
        return samples, types

    for number, line in enumerate(lines, start=1):
        where = f"{path}:{number}"
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                v.add(where, "HELP line without help text")
            else:
                helps.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                v.add(where, "malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if kind not in VALID_TYPES:
                v.add(where, f"unknown TYPE {kind!r} for {name}")
            if name in types:
                v.add(where, f"duplicate TYPE for {name}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        match = LINE_RE.match(line)
        if not match:
            v.add(where, f"unparseable sample line: {line!r}")
            continue
        name = match.group("name")
        if not NAME_RE.match(name):
            v.add(where, f"invalid metric name {name!r}")
        if not name.startswith("bwtk_"):
            v.add(where, f"metric {name} missing bwtk_ prefix")
        try:
            value = float(match.group("value"))
        except ValueError:
            v.add(where, f"unparseable value {match.group('value')!r}")
            continue
        family = family_of(name)
        if family not in types:
            v.add(where, f"sample {name} has no preceding # TYPE")
        if family not in helps:
            v.add(where, f"sample {name} has no preceding # HELP")
        if types.get(family) == "counter" and not family.endswith("_total"):
            v.add(where, f"counter family {family} does not end in _total")
        if types.get(family) == "counter" and value < 0:
            v.add(where, f"counter {name} is negative ({value})")
        samples[(name, match.group("labels") or "")] = value
    return samples, types


def check_histogram_buckets(path, samples, types, v):
    """le-labeled buckets within one series must be cumulative."""
    series = {}
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket") or types.get(
                family_of(name)) != "histogram":
            continue
        le = None
        rest = []
        for part in labels.split(","):
            if part.startswith("le="):
                le = part[4:-1]  # strip le=" and trailing "
            elif part:
                rest.append(part)
        if le is None:
            v.add(path, f"{name}{{{labels}}} lacks an le label")
            continue
        bound = float("inf") if le == "+Inf" else float(le)
        series.setdefault((name, ",".join(rest)), []).append((bound, value))
    for (name, rest), buckets in series.items():
        buckets.sort()
        counts = [count for _, count in buckets]
        if counts != sorted(counts):
            v.add(path, f"histogram {name}{{{rest}}} buckets not cumulative")
        if buckets and buckets[-1][0] != float("inf"):
            v.add(path, f"histogram {name}{{{rest}}} missing +Inf bucket")


def check_metrics_monotone(paths, scrapes, v):
    """Counter series must not decrease across successive scrapes of one
    process (oldest scrape given first)."""
    for (older_path, older), (newer_path, newer) in zip(
            scrapes, scrapes[1:]):
        older_samples, older_types = older
        newer_samples, _ = newer
        for key, before in older_samples.items():
            name, labels = key
            if older_types.get(family_of(name)) != "counter":
                continue
            after = newer_samples.get(key)
            if after is None:
                v.add(newer_path,
                      f"counter {name}{{{labels}}} vanished "
                      f"(present in {older_path})")
            elif after < before:
                v.add(newer_path,
                      f"counter {name}{{{labels}}} decreased "
                      f"{before} -> {after}")


def load_varz(path, v):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        v.add(path, f"unreadable or invalid JSON: {error}")
        return None


def check_varz(path, doc, v):
    for key in ("ready", "engine", "session", "cumulative", "windows"):
        if key not in doc:
            v.add(path, f"missing top-level key {key!r}")
    session = doc.get("session", {})
    for key, value in session.items():
        if key == "accepting":
            if not isinstance(value, bool):
                v.add(path, f"session.{key} is not a bool")
        elif not isinstance(value, int) or value < 0:
            v.add(path, f"session.{key} is not a non-negative integer")
    windows = doc.get("windows", {})
    for window in WINDOWS:
        entry = windows.get(window)
        if entry is None:
            v.add(path, f"windows.{window} missing")
            continue
        for key in ("seconds", "counters", "rates", "latency"):
            if key not in entry:
                v.add(path, f"windows.{window}.{key} missing")
        for hist, latency in entry.get("latency", {}).items():
            quantiles = [latency.get(q, 0) for q in ("p50", "p95", "p99")]
            if quantiles != sorted(quantiles):
                v.add(path,
                      f"windows.{window}.latency.{hist} quantiles not "
                      f"monotone: {quantiles}")
            if latency.get("count", 0) == 0 and any(quantiles):
                v.add(path,
                      f"windows.{window}.latency.{hist} empty but has "
                      f"nonzero quantiles")


def check_varz_monotone(paths, docs, v):
    for (older_path, older), (newer_path, newer) in zip(
            list(zip(paths, docs)), list(zip(paths, docs))[1:]):
        before = older.get("session", {})
        after = newer.get("session", {})
        for key in SESSION_MONOTONE:
            if key in before and key in after and after[key] < before[key]:
                v.add(newer_path,
                      f"session.{key} decreased {before[key]} -> "
                      f"{after[key]} (vs {older_path})")


def main(argv):
    parser = argparse.ArgumentParser(
        description="validate telemetry scrapes")
    parser.add_argument("--metrics", action="append", default=[],
                        help="/metrics scrape file (repeatable; oldest "
                             "first for monotonicity checks)")
    parser.add_argument("--varz", action="append", default=[],
                        help="/varz.json scrape file (repeatable)")
    args = parser.parse_args(argv)
    if not args.metrics and not args.varz:
        parser.error("give at least one --metrics or --varz file")

    v = Violations()
    scrapes = []
    for path in args.metrics:
        parsed = parse_metrics(path, v)
        check_histogram_buckets(path, parsed[0], parsed[1], v)
        scrapes.append((path, parsed))
    if len(scrapes) >= 2:
        check_metrics_monotone(args.metrics, scrapes, v)

    docs = []
    for path in args.varz:
        doc = load_varz(path, v)
        if doc is not None:
            check_varz(path, doc, v)
            docs.append(doc)
    if len(docs) >= 2:
        check_varz_monotone(args.varz, docs, v)

    if v.items:
        print(f"FAIL: {len(v.items)} violation(s)")
        for item in v.items:
            print(f"  {item}")
        return 1
    checked = len(args.metrics) + len(args.varz)
    print(f"OK: {checked} scrape(s) validated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
