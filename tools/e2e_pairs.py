#!/usr/bin/env python3
"""Alternating-pairs comparison of two builds on one e2e workload.

Usage:
    python3 tools/e2e_pairs.py PARENT CHANGE --workload W \\
        [--seeds 1-10] [--seconds 15] [--trace]

PARENT and CHANGE are two checkouts of this repository, each with a built
`crates/e2e/target/release/dbs3-e2e` (`cargo build --release --offline
--manifest-path crates/e2e/Cargo.toml` in each). For every seed the script
runs one pair: the parent first on odd seeds, the change first on even
ones, so a drift of the host's speed during the session falls on both
sides alike. Each run is the benchmark's own command line,
`dbs3-e2e --workload W --seed N --seconds S --trace 0`, started from its
checkout's root.

It prints one row per pair, then for each of the seven end-to-end metrics
the median and quartiles of each side, the change's median relative to the
parent's, on how many pairs the change was better, and whether the medians
lie further apart than the parent's interquartile distance. It also counts,
per side, the `note: N replaced relation versions ... were cloned` lines
the runs print on stderr (the number of versions, and the runs that printed
one): such a clone counts against the timings of the run it happens in.

`--trace` runs each side once more with `--trace 1` on the first seed and
prints the per-layer metrics side by side.

A run that outlives `120 + 10 * --seconds` seconds is killed and reported
as failed, so a build that hangs (a livelocked pool) shows up as a failed
run instead of stopping the comparison.

Exits 1 when any run reports `"correct": false` or fails, 2 on bad usage.
Standard library only.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys

BINARY = os.path.join("crates", "e2e", "target", "release", "dbs3-e2e")

# name -> True when lower is better; BENCHMARK.json's end-to-end list.
METRICS = {
    "query_p50_ms": True,
    "query_p90_ms": True,
    "throughput_qps": False,
    "cpu_ms_per_query": True,
    "alloc_kib_per_query": True,
    "allocs_per_query": True,
    "setup_s": True,
}

NOTE = re.compile(r"note: (\d+) replaced relation versions")


def seed_range(text):
    """`3-7` or `5` -> a list of seeds."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


def run(checkout, workload, seed, seconds, trace):
    """One benchmark run: (metrics {name: value}, correct, clone notes)."""
    command = [
        os.path.join(checkout, BINARY),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    timeout = 120 + 10 * seconds
    # A session of its own, so a kill reaches the run's child processes.
    with subprocess.Popen(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            stdout, stderr = child.communicate()
            sys.stderr.write(stderr)
            print(f"{checkout}: seed {seed} killed after {timeout:g} s", file=sys.stderr)
            return {}, False, []
    sys.stderr.write(stderr)
    notes = [int(n) for n in NOTE.findall(stderr)]
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{checkout}: seed {seed} ended with {child.returncode}", file=sys.stderr)
        return {}, False, notes
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["correct"] is True, notes


def quartiles(values):
    """(Q1, Q3) of `values`; both the value itself for a single run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def fmt(value, digits=4):
    return f"{value:.{digits}g}" if abs(value) < 10**digits else f"{value:.0f}"


def fmt_metric(name, value):
    """Allocation counts repeat to the digit, so they print in full."""
    return fmt(value, 8 if name.startswith("alloc") else 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true",
                        help="one traced run per side on the first seed")
    args = parser.parse_args()
    # Each run starts in its checkout, so a relative path would be resolved
    # a second time from there.
    args.parent, args.change = os.path.abspath(args.parent), os.path.abspath(args.change)
    for checkout in (args.parent, args.change):
        if not os.access(os.path.join(checkout, BINARY), os.X_OK):
            parser.error(f"{checkout}: no built {BINARY}")

    sides = ("parent", "change")
    checkouts = dict(zip(sides, (args.parent, args.change)))
    results = {side: [] for side in sides}
    notes = {side: [] for side in sides}
    all_correct = True

    print(f"# {args.workload}, {args.seconds:g} s per run, "
          f"seeds {args.seeds[0]}-{args.seeds[-1]}")
    header = ["seed", "first"] + [f"{m} (parent -> change)" for m in METRICS]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for seed in args.seeds:
        order = sides if seed % 2 else sides[::-1]
        pair = {}
        for side in order:
            metrics, correct, side_notes = run(
                checkouts[side], args.workload, seed, args.seconds, trace=False)
            all_correct &= correct
            pair[side] = metrics
            notes[side].append(side_notes)
        cells = [str(seed), order[0]]
        for name in METRICS:
            before, after = pair["parent"].get(name), pair["change"].get(name)
            if before is None or after is None:
                cells.append("—")
                continue
            cells.append(f"{fmt_metric(name, before)} -> {fmt_metric(name, after)}")
            results["parent"].append((name, before))
            results["change"].append((name, after))
        print("| " + " | ".join(cells) + " |", flush=True)

    print()
    print("| metric | parent median [Q1, Q3] | change median [Q1, Q3] "
          "| change / parent | change better | medians apart > parent IQR |")
    print("|---|---|---|---|---|---|")
    for name, lower_is_better in METRICS.items():
        before = [v for n, v in results["parent"] if n == name]
        after = [v for n, v in results["change"] if n == name]
        if not before:
            continue
        better = sum((a < b) if lower_is_better else (a > b) for b, a in zip(before, after))
        m_before, m_after = statistics.median(before), statistics.median(after)
        ratio = m_after / m_before if m_before else float("nan")
        q_before, q_after = quartiles(before), quartiles(after)
        iqr = q_before[1] - q_before[0]
        show = [fmt_metric(name, v) for v in (m_before, *q_before, m_after, *q_after)]
        apart = "yes" if abs(m_after - m_before) > iqr else "no"
        print(f"| {name} | {show[0]} [{show[1]}, {show[2]}] | {show[3]} [{show[4]}, {show[5]}] "
              f"| {ratio:.3f} | {better} of {len(before)} | {apart} |")

    print()
    for side in sides:
        per_run = notes[side]
        printed = sum(1 for run_notes in per_run if run_notes)
        versions = sum(sum(run_notes) for run_notes in per_run)
        print(f"{side}: {versions} replaced relation versions cloned, "
              f"in {printed} of {len(per_run)} runs")

    if args.trace:
        seed = args.seeds[0]
        traced = {}
        for side in sides:
            metrics, correct, _ = run(
                checkouts[side], args.workload, seed, args.seconds, trace=True)
            all_correct &= correct
            traced[side] = metrics
        print()
        print(f"| layer (seed {seed}) | parent | change |")
        print("|---|---|---|")
        for name in traced["parent"]:
            after = traced["change"].get(name)
            after = "—" if after is None else fmt(after)
            print(f"| {name} | {fmt(traced['parent'][name])} | {after} |")

    if not all_correct:
        print("a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
