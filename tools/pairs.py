#!/usr/bin/env python3
"""Alternating benchmark runs of two commits, and their summary.

    python3 tools/pairs.py PARENT CHANGE --workload bulk_block --seed 17 --pairs 10

Each commit is exported with ``git archive`` into its own temporary
directory, so neither side runs the working tree and nothing is left
registered in the repository. Pair p runs ``protobench/run.py --workload W
--seed S --seconds T`` once in each checkout, the parent first in even
pairs and the change first in odd ones. Each run records its final JSON
line, its outputs digest and the minor page faults of the run and its
workers (``resource.getrusage(RUSAGE_CHILDREN)`` before and after it).

The summary gives, for each end-to-end metric of ``BENCHMARK.json``, the
parent's and the change's median with their quartiles, the pairs the
change won and the ratio of the medians: over all runs, then within each
fault mode, a cluster of runs whose fault counts lie within
``MODE_GAP`` of the next. A bulk_block worker lands in one of a few
glibc page-fault modes (README, "Benchmark trajectory"), so a gain that
holds only across modes is not a gain of the code.

A run that exits 1, as protobench does when an operation failed, is kept,
and the summary ends with each side's failed and attempted operations over
all its runs. Exits 1 when the outputs digests differ within a pair or the
change's share of failed operations exceeds the parent's, and 2 when a
commit cannot be exported or a run exits otherwise or prints no result line
(its outputs digest and final JSON line).
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# two fault counts belong to one mode when they differ by at most this share
MODE_GAP = 0.03


class RunFailed(Exception):
    pass


def export(commit: str, into: Path) -> Path:
    """The tree of ``commit`` written under ``into``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit], capture_output=True
    )
    if tar.returncode != 0:
        raise RunFailed(f"cannot export {commit}: {tar.stderr.decode().strip()}")
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in ``checkout``, as ``run_record`` reads it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "protobench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    try:
        return run_record(proc.returncode, proc.stdout, faults)
    except RunFailed as exc:
        raise RunFailed(f"run in {checkout} {exc}: {proc.stderr.strip()}") from None


def run_record(returncode: int, stdout: str, faults: int) -> dict:
    """The record of a run that exited ``returncode`` after printing
    ``stdout``: its final JSON line, its outputs digest and its minor
    faults. Exit 1, an operation failed, is kept; RunFailed when the run
    exited otherwise or printed no result line."""
    lines = stdout.strip().splitlines()
    digests = [line.split()[-1] for line in lines if line.strip().startswith("outputs sha256:")]
    try:
        line = json.loads(lines[-1]) if lines else None
    except ValueError:
        line = None
    if returncode not in (0, 1) or not digests or not isinstance(line, dict):
        raise RunFailed(f"exited {returncode} without a result line")
    return {"line": line, "digest": digests[0], "faults": faults}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fault_modes(faults: list) -> list:
    """The fault counts grouped into modes, each a sorted list, a count
    joining the mode of the next smaller one when within ``MODE_GAP``."""
    modes = []
    for count in sorted(faults):
        if modes and count - modes[-1][-1] <= MODE_GAP * modes[-1][-1]:
            modes[-1].append(count)
        else:
            modes.append([count])
    return modes


def value(run: dict, metric: str):
    entry = run["line"]["metrics"].get(metric)
    return None if entry is None else entry["value"]


def compare(pairs: list, metrics: list) -> list:
    """One row per metric both sides report: (name, parent median, parent
    quartiles, change median, change quartiles, wins, pairs compared,
    change / parent). ``pairs`` holds (parent run, change run) with either
    run None when it lies outside the mode compared; a win needs both."""
    rows = []
    for name, better in metrics:
        sides = [[value(run, name) for run in side if run is not None] for side in zip(*pairs)]
        if not all(sides) or None in sides[0] + sides[1]:
            continue
        both = [(a, b) for a, b in pairs if a is not None and b is not None]
        wins = sum(
            (value(b, name) < value(a, name)) if better == "lower"
            else (value(b, name) > value(a, name))
            for a, b in both
        )
        mid = [statistics.median(side) for side in sides]
        rows.append((
            name, mid[0], quartiles(sides[0]), mid[1], quartiles(sides[1]), wins, len(both),
            mid[1] / mid[0] if mid[0] else float("nan"),
        ))
    return rows


def cell(mid: float, q: tuple) -> str:
    return f"{mid:.4g} [{q[0]:.4g}, {q[1]:.4g}]"


def summary(pairs: list, metrics: list) -> str:
    """The report over ``pairs`` of (parent run, change run) records of
    ``run_once``: every metric over all runs, then within each fault mode
    that holds runs of both sides. ``metrics`` lists (name, "lower" or
    "higher") in report order."""
    out = []
    for side, runs in zip(SIDES, zip(*pairs)):
        counts = " ".join(f"{run['faults'] / 1000:.0f}" for run in runs)
        out.append(f"minor faults per run (k), {side}: {counts}")
    groups = [("all runs", pairs)]
    for mode in fault_modes([run["faults"] for pair in pairs for run in pair]):
        members = [[run if run["faults"] in mode else None for run in pair] for pair in pairs]
        if all(any(pair[s] for pair in members) for s in (0, 1)) and len(mode) < 2 * len(pairs):
            label = f"fault mode {mode[0] / 1000:.0f}-{mode[-1] / 1000:.0f} k"
            groups.append((label, members))
    for label, group in groups:
        counts = [sum(run is not None for run in side) for side in zip(*group)]
        out.append(f"{label} ({counts[0]} parent, {counts[1]} change):")
        out.append(f"  {'metric':<16} {'parent [q1, q3]':<28} {'change [q1, q3]':<28} "
                   f"{'wins':<7} ratio")
        for name, a, qa, b, qb, wins, n, ratio in compare(group, metrics):
            out.append(f"  {name:<16} {cell(a, qa):<28} {cell(b, qb):<28} {wins:>3}/{n:<3} "
                       f"{ratio:.3f}")
    (fp, ap), (fc, ac) = failed_operations(pairs)
    out.append(f"failed operations: parent {fp} of {ap}, change {fc} of {ac}")
    return "\n".join(out)


def failed_operations(pairs: list) -> list:
    """(failed, attempted) operations over all of each side's runs, parent
    first."""
    return [
        (sum(run["line"]["failed"] for run in side), sum(run["line"]["attempted"] for run in side))
        for side in zip(*pairs)
    ]


def fails_more(pairs: list) -> bool:
    """True when the change's share of failed operations exceeds the
    parent's."""
    (fp, ap), (fc, ac) = failed_operations(pairs)
    return fc * ap > fp * ac


def digest_mismatches(pairs: list) -> list:
    """The indices of the pairs whose two runs' outputs digests differ."""
    return [p for p, (a, b) in enumerate(pairs) if a["digest"] != b["digest"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    pairs = []
    try:
        with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
            checkouts = [export(commit, Path(tmp) / side)
                         for side, commit in zip(SIDES, (args.parent, args.change))]
            for p in range(args.pairs):
                order = (0, 1) if p % 2 == 0 else (1, 0)
                pair = [None, None]
                for s in order:
                    pair[s] = run_once(checkouts[s], args.workload, args.seed, args.seconds)
                    print(f"pair {p} {SIDES[s]}: {pair[s]['faults']} faults, "
                          f"commit_s {value(pair[s], 'commit_s')}", file=sys.stderr)
                pairs.append(pair)
    except RunFailed as exc:
        print(f"pairs: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds}: "
          f"{args.parent} -> {args.change}")
    print(summary(pairs, metrics))
    status = 0
    bad = digest_mismatches(pairs)
    if bad:
        print(f"pairs: outputs digests differ in pairs {bad}", file=sys.stderr)
        status = 1
    else:
        print("outputs digests equal in every pair")
    if fails_more(pairs):
        print("pairs: the change fails a larger share of operations", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
