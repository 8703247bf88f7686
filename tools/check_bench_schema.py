#!/usr/bin/env python3
"""Schema check for the dbs3 benchmark record `BENCH_engine.json`.

Usage:
    python3 tools/check_bench_schema.py PATH

The record holds the paper-figure tiers (fig14/fig15 elapsed time at
1/4/8 threads, with speedup rows whose shapes match the runs), the
multi-query levels at 1/4/16 concurrent queries per tier, and the
measuring host's `host_cpus`.
"""

import json
import sys

SCHEMA_VERSION = 5

SCALES = ("paper", "smoke", "scaled", "scaled_smoke")


def fail(msg):
    print(f"schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check(doc):
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(f"schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}")
    if not isinstance(doc.get("host_cpus"), int) or doc["host_cpus"] < 1:
        fail(f"host_cpus invalid: {doc.get('host_cpus')!r}")
    tiers = doc.get("tiers")
    if not isinstance(tiers, list) or len(tiers) != 2:
        fail(f"expected 2 tiers, got {[t.get('scale') for t in tiers or []]}")
    for tier in tiers:
        if tier["scale"] not in SCALES:
            fail(f"unknown tier scale {tier['scale']!r}")
        if len(tier["runs"]) != 6:
            fail(f"tier {tier['scale']} has {len(tier['runs'])} runs, expected 6")
        shapes = {r["shape"] for r in tier["runs"]}
        if {s["shape"] for s in tier["speedups"]} != shapes:
            fail(f"tier {tier['scale']} speedup shapes do not match runs")
        for s in tier["speedups"]:
            if s["speedup_4t"] <= 0 or s["speedup_8t"] <= 0:
                fail(f"non-positive speedup in tier {tier['scale']}: {s}")
    concurrent = doc.get("concurrent")
    # One entry per (tier, concurrency level): both tiers x 1/4/16.
    if not isinstance(concurrent, list) or len(concurrent) != 6:
        fail(f"expected 6 concurrent levels, got {len(concurrent or [])}")
    by_scale = {}
    for c in concurrent:
        by_scale.setdefault(c["scale"], []).append(c["queries"])
    if len(by_scale) != 2 or any(v != [1, 4, 16] for v in by_scale.values()):
        fail(f"concurrent levels wrong: {by_scale}")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = sys.argv[1]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    check(doc)
    print(f"{path}: schema OK")


if __name__ == "__main__":
    main()
