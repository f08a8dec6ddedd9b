"""The benchmark trajectory: one ``BENCH_<workload>.json`` at the
repository root per workload ``BENCHMARK.json`` declares, each a list of
points in commit order (README, "Benchmark trajectory"). Every point names
the commit it measured, and the last one carries every metric
``BENCHMARK.json`` names: the end-to-end ones from the untraced run, the
per-layer ones from the traced run."""

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
# an abbreviated or full hash; a trailing + marks a point measured on the
# change on top of that commit that added the point
COMMIT = re.compile(r"([0-9a-f]{7,40})(\+?)")


def points(workload: str) -> list:
    return json.loads((ROOT / f"BENCH_{workload}.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_point_names_a_commit_and_the_last_has_every_metric(workload):
    trajectory = points(workload)
    assert isinstance(trajectory, list) and trajectory
    for point in trajectory:
        assert COMMIT.fullmatch(point["commit"]), point["commit"]
        assert f"--workload {workload} " in point["command"]
        assert re.fullmatch(r"[0-9a-f]{64}", point["outputs_sha256"]["untraced"])
        for run in ("untraced", "traced"):
            assert point[run]["correct"] is True and point[run]["failed"] == 0
    last = trajectory[-1]
    for run, kind in (("untraced", "end_to_end"), ("traced", "per_layer")):
        names = {metric["name"] for metric in BENCHMARK[kind]}
        assert names <= set(last[run]["metrics"]), (run, names - set(last[run]["metrics"]))


def history() -> list[str]:
    """Full hashes of HEAD's history, oldest first, or skip when this
    checkout has none to order the points by."""
    git = shutil.which("git")
    if git is None or not (ROOT / ".git").exists():
        pytest.skip("no git history to order the points by")
    out = subprocess.run(
        [git, "rev-list", "--reverse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    if out.returncode != 0:
        pytest.skip("no git history to order the points by")
    return out.stdout.split()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_points_are_in_commit_order(workload):
    commits = history()
    order = []
    for point in points(workload):
        prefix, after = COMMIT.fullmatch(point["commit"]).groups()
        at = [k for k, full in enumerate(commits) if full.startswith(prefix)]
        assert len(at) == 1, f"{point['commit']} is not one commit of HEAD's history"
        order.append((at[0], after == "+"))
    assert all(a < b for a, b in zip(order, order[1:])), order
