"""``tools/pairs.py``'s summary on canned runs: the medians, quartiles,
wins and ratios it prints over all runs and within each fault mode, its
count of failed operations, its check of the outputs digests, and which
canned run outputs it keeps. No benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest
from pytest import approx

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = [("commit_s", "lower"), ("throughput_MBps", "higher"), ("peak_rss_MB", "lower")]


def canned(commit_s, throughput, faults, digest="d" * 64, failed=0) -> dict:
    """A run record as ``pairs.run_once`` makes it, from the final JSON line
    protobench prints (no ``peak_rss_MB`` in it)."""
    line = {
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {
            "commit_s": {"value": commit_s, "unit": "s"},
            "throughput_MBps": {"value": throughput, "unit": "MiB/s"},
        },
    }
    return {"line": line, "digest": digest, "faults": faults}


# four pairs: the change wins commit_s in three and throughput in two; one
# parent run and one change run sit in a fault mode 20% above the rest
PAIRS = [
    [canned(0.050, 60.0, 1_000_000), canned(0.040, 61.0, 1_010_000)],
    [canned(0.052, 62.0, 1_200_000), canned(0.041, 61.0, 1_005_000)],
    [canned(0.048, 64.0, 1_020_000), canned(0.049, 65.0, 1_190_000)],
    [canned(0.054, 66.0, 990_000), canned(0.042, 60.0, 1_000_000)],
]


def test_compare_over_all_runs():
    commit, throughput = pairs.compare(PAIRS, METRICS)
    # medians and inclusive quartiles of 0.048, 0.050, 0.052, 0.054 and
    # of 0.040, 0.041, 0.042, 0.049
    assert commit == ("commit_s", approx(0.051), approx((0.0495, 0.0525)), approx(0.0415),
                      approx((0.04075, 0.04375)), 3, 4, approx(0.0415 / 0.051))
    assert throughput[0] == "throughput_MBps" and throughput[5:7] == (2, 4)


def test_fault_modes_split_at_the_gap():
    faults = [run["faults"] for pair in PAIRS for run in pair]
    assert pairs.fault_modes(faults) == [
        [990_000, 1_000_000, 1_000_000, 1_005_000, 1_010_000, 1_020_000],
        [1_190_000, 1_200_000],
    ]


def test_summary_reads_each_mode_alone():
    text = pairs.summary(PAIRS, METRICS).splitlines()
    assert text[0] == "minor faults per run (k), parent: 1000 1200 1020 990"
    assert text[1] == "minor faults per run (k), change: 1010 1005 1190 1000"
    assert text[2] == "all runs (4 parent, 4 change):"
    assert text[4].split() == [
        "commit_s", "0.051", "[0.0495,", "0.0525]", "0.0415", "[0.04075,", "0.04375]",
        "3/4", "0.814",
    ]
    # the low mode: pairs 0 and 3 whole, pair 1's change and pair 2's parent
    low = text.index("fault mode 990-1020 k (3 parent, 3 change):")
    assert text[low + 2].split() == [
        "commit_s", "0.05", "[0.049,", "0.052]", "0.041", "[0.0405,", "0.0415]", "2/2", "0.820",
    ]
    high = text.index("fault mode 1190-1200 k (1 parent, 1 change):")
    assert text[high + 2].split()[-2:] == ["0/0", "0.942"]
    assert not any("peak_rss_MB" in line for line in text)
    assert text[-1] == "failed operations: parent 0 of 40, change 0 of 40"


def test_digests_are_compared_within_each_pair():
    assert pairs.digest_mismatches(PAIRS) == []
    other = [PAIRS[0], [PAIRS[1][0], canned(0.041, 61.0, 1_005_000, digest="e" * 64)]]
    assert pairs.digest_mismatches(other) == [1]


def failing(pair: int, side: int, failed: int) -> list:
    """PAIRS with run ``side`` of pair ``pair`` failing ``failed`` of its 10
    operations."""
    out = [list(p) for p in PAIRS]
    out[pair][side] = canned(0.050, 60.0, 1_000_000, failed=failed)
    return out


def test_failed_operations_are_counted_per_side():
    more = failing(1, 1, 3)
    assert pairs.summary(more, METRICS).splitlines()[-1] == (
        "failed operations: parent 0 of 40, change 3 of 40"
    )
    assert pairs.fails_more(more)
    # equal shares, and a parent that fails more, are no worse
    even = failing(0, 0, 3)
    even[2][1] = canned(0.050, 60.0, 1_000_000, failed=3)
    assert not pairs.fails_more(even)
    assert not pairs.fails_more(failing(3, 0, 1))
    assert not pairs.fails_more(PAIRS)


def protobench_stdout(failed: int) -> str:
    """What ``protobench/run.py`` prints: a header, the operations, the
    outputs digest and the final JSON line."""
    line = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {}}
    return "\n".join((
        "protobench honest_round seed=1 seconds=2 trace=0",
        f"  operations: 10 attempted, {failed} failed",
        "  outputs sha256: " + "d" * 64,
        json.dumps(line),
    )) + "\n"


@pytest.mark.parametrize("returncode, failed", [(0, 0), (1, 2)])
def test_a_run_with_a_result_line_is_kept(returncode, failed):
    record = pairs.run_record(returncode, protobench_stdout(failed), 1234)
    assert record == {
        "line": json.loads(protobench_stdout(failed).splitlines()[-1]),
        "digest": "d" * 64, "faults": 1234,
    }


@pytest.mark.parametrize(
    "returncode, stdout",
    [
        (2, protobench_stdout(0)),  # a worker failed
        (1, ""),
        (1, protobench_stdout(2).rsplit("\n", 2)[0]),  # cut before the JSON line
        (0, protobench_stdout(0).replace("outputs sha256", "outputs")),
    ],
    ids=["exit_2", "no_output", "no_json_line", "no_digest"],
)
def test_a_run_without_a_result_line_fails(returncode, stdout):
    with pytest.raises(pairs.RunFailed, match="without a result line"):
        pairs.run_record(returncode, stdout, 0)
