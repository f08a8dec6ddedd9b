"""``tools/trajectory.py`` on canned run output: the point it makes from a
workload's untraced and traced runs, its relabelling of the previous last
point, and what it refuses. No benchmark runs here."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import pairs  # noqa: E402
import trajectory  # noqa: E402

from test_bench_trajectory import BENCHMARK, assert_well_formed  # noqa: E402

HOST = {"vcpus": 2, "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6"}
# full hashes, oldest first, as ``git rev-list --reverse --first-parent HEAD`` prints them
HISTORY = [c * 40 for c in "abc"]


def stdout(kind: str, digest: str = "a" * 64, failed: int = 0) -> str:
    """What ``protobench/run.py`` prints: a header, the outputs digest and
    the final JSON line, with every metric of ``kind`` in it."""
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK[kind]}
    line = {"correct": failed == 0, "attempted": 12, "failed": failed, "metrics": metrics}
    return (f"protobench bulk_block seed=3 seconds=25\n  outputs sha256: {digest}\n"
            f"{json.dumps(line)}\n")


def runs(**traced) -> dict:
    return {
        "untraced": pairs.run_record(0, stdout("end_to_end"), 1_000_000),
        "traced": pairs.run_record(0, stdout("per_layer", **traced), 1_100_000),
    }


def test_a_point_appended_after_a_relabel_is_well_formed():
    before = [trajectory.make_point("bulk_block", "aaaaaaa+", runs(), HOST)]
    assert_well_formed("bulk_block", before)
    point = trajectory.make_point("bulk_block", "bbbbbbb+", runs(), HOST)
    after = trajectory.relabelled(before, HISTORY) + [point]
    assert_well_formed("bulk_block", after)
    # the + point measured the change that became aaaaaaa's child
    assert [p["commit"] for p in after] == ["bbbbbbb", "bbbbbbb+"]
    assert before[0]["commit"] == "aaaaaaa+"  # the input is not edited
    assert point["command"] == (
        "python3 protobench/run.py --workload bulk_block --seed 3 --seconds 25 --trace {0,1}"
    )
    assert point["outputs_sha256"] == {"untraced": "a" * 64, "traced": "a" * 64}
    assert point["untraced"] == runs()["untraced"]["line"] and point["host"] == HOST


def test_a_point_without_a_plus_keeps_its_label():
    before = [trajectory.make_point("bulk_block", "aaaaaaa", runs(), HOST)]
    assert trajectory.relabelled(before, HISTORY) == before


@pytest.mark.parametrize("label", ("ccccccc+", "ddddddd+"))
def test_a_plus_point_without_a_child_in_history_is_refused(label):
    before = [trajectory.make_point("bulk_block", label, runs(), HOST)]
    with pytest.raises(ValueError, match="no commit with a child"):
        trajectory.relabelled(before, HISTORY)


@pytest.mark.parametrize("bad", ({"digest": "b" * 64}, {"failed": 1}))
def test_a_failed_run_or_a_digest_mismatch_makes_no_point(bad):
    with pytest.raises(ValueError):
        trajectory.make_point("bulk_block", "e25f74b+", runs(**bad), HOST)
