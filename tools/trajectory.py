#!/usr/bin/env python3
"""Append one benchmark trajectory point per workload.

    python3 tools/trajectory.py

For each workload ``BENCHMARK.json`` declares, runs ``protobench/run.py
--workload W --seed 3 --seconds 25`` in this checkout twice, with
``--trace 0`` and with ``--trace 1``, and appends one point to
``BENCH_W.json`` (README, "Benchmark trajectory"). The point is labelled
with HEAD's abbreviated hash and a trailing ``+``: it measures the change
on top of HEAD. A previous last point labelled ``X+`` measured the change
that became X's child on HEAD's first-parent history, and takes that
child's abbreviated hash; the command refuses to run when X has no child
there.

All runs come first, so nothing is written unless every run succeeded.
Exits 1, writing nothing, when a run failed an operation or a workload's
two runs' outputs digests differ, and 2 when a run exits otherwise or
prints no result line. Each run's minor page faults go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

from pairs import ROOT, RunFailed, run_once

RUNS = ("untraced", "traced")
SEED, SECONDS = 3, 25


def host() -> dict:
    return {
        "vcpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def make_point(workload: str, label: str, runs: dict, on: dict) -> dict:
    """The point of ``workload`` labelled ``label`` from its two runs,
    ``runs[name]`` for each name of ``RUNS`` a record of
    ``pairs.run_once``, measured on host ``on``. ValueError when a run
    failed an operation or the outputs digests differ."""
    lines = {name: runs[name]["line"] for name in RUNS}
    digests = {name: runs[name]["digest"] for name in RUNS}
    if any(not line["correct"] or line["failed"] for line in lines.values()):
        raise ValueError(f"{workload}: a run failed an operation")
    if len(set(digests.values())) != 1:
        raise ValueError(f"{workload}: outputs digests differ: {digests}")
    return {
        "commit": label,
        "command": f"python3 protobench/run.py --workload {workload} --seed {SEED} "
                   f"--seconds {SECONDS} --trace {{0,1}}",
        "host": on,
        "outputs_sha256": digests,
        **lines,
    }


def relabelled(points: list, history: list) -> list:
    """``points`` with a last point labelled ``X+`` relabelled with the
    abbreviated hash of X's child in ``history``, full hashes oldest first.
    ValueError when X is not one commit of ``history`` or has no child
    there."""
    points = [dict(p) for p in points]
    label = points[-1]["commit"] if points else ""
    if label.endswith("+"):
        at = [k for k, full in enumerate(history) if full.startswith(label[:-1])]
        if len(at) != 1 or at[0] + 1 == len(history):
            raise ValueError(f"the last point, {label}, names no commit with a child in history")
        points[-1]["commit"] = history[at[0] + 1][:7]
    return points


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    head = git("rev-parse", "--short=7", "HEAD").strip()
    history = git("rev-list", "--reverse", "--first-parent", "HEAD").split()

    files = {}
    try:
        # the labels are checked before any run
        for workload in (w["name"] for w in spec["workloads"]):
            path = ROOT / f"BENCH_{workload}.json"
            files[workload, path] = relabelled(json.loads(path.read_text()), history)
        for (workload, path), points in files.items():
            runs = {}
            for trace, name in enumerate(RUNS):
                runs[name] = run_once(ROOT, workload, SEED, SECONDS, trace)
                print(f"{workload} {name}: {runs[name]['faults']} faults", file=sys.stderr)
            points.append(make_point(workload, f"{head}+", runs, host()))
    except RunFailed as exc:
        print(f"trajectory: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"trajectory: {exc}", file=sys.stderr)
        return 1
    for (_workload, path), points in files.items():
        path.write_text(json.dumps(points, indent=1) + "\n")
        print(f"{path.name}: {len(points)} points, the last {points[-1]['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
