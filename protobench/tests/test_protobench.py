"""The benchmark's own tests: tiny-geometry smoke runs of every workload,
the traced path and its counters, self-time arithmetic, missing
wrappers and the result contract."""

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from daoracle import cit  # noqa: E402
from protobench import clock, run, stats, worker, workloads  # noqa: E402
from protobench.tracing import Span, Tracer, Wrap, children_of, self_time  # noqa: E402

# the 512-byte tree of tests/conftest.py: coded layers 32 / 16 / 8 over a
# root of 4
SMALL = cit.TreeParams(
    symbol_size=64, root_size=4, rate=Fraction(1, 4), batch=8, max_eq_degree=8,
    alpha=0.125, code_seed=5,
)
TINY = {
    "honest_round": workloads.Geometry(SMALL, 512, n_nodes=8, silent=1, withhold=1, lam=0.125),
    "fraud_round": workloads.Geometry(SMALL, 512, n_nodes=8, lam=0.125),
    "bulk_block": workloads.Geometry(SMALL, 512, delivered=0.9),
}


def tiny(name, trace=False, seed=3, n_ops=4):
    cit.layer_code.cache_clear()  # each benchmark process gates its codes once
    return worker.measure(name, seed, n_ops, trace, t0=0.0, geometry=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_smoke(name):
    res = tiny(name)
    assert res["attempted"] == 5  # and the warm-up
    assert res["failed"] == 0, res["failures"]
    assert len(res["propose_s"]) == len(res["commit_s"]) == 4
    clients = 1 if name == "bulk_block" else workloads.CLIENTS
    assert len(res["retrieve_s"]) == 4 * clients
    assert all(t > 0 for t in res["serial_s"])
    values, _notes = run.end_to_end(res, [(res["setup_s"], res["setup_wall_s"])])
    assert set(values) == set(run.END_TO_END)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counters_repeat_and_outputs_match(name):
    first, second = tiny(name, trace=True), tiny(name, trace=True)
    assert first["failed"] == second["failed"] == 0
    assert first["missing"] == []
    counters = [m for m, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    for metric in counters:
        assert first["per_layer"][metric] == second["per_layer"][metric], metric
    # tracing changes no output
    assert first["digest"] == second["digest"] == tiny(name)["digest"]
    assert set(run.PER_LAYER) <= set(first["per_layer"])
    layer = first["per_layer"]
    assert 0 <= layer["retrieval.decode_s"] <= layer["retrieval.reconstruct_s"]
    assert layer["cit.walk_pom_calls"] > 0 and layer["cit.sample_pom_calls"] > 0


def test_fraud_round_convicts_on_chain():
    res = tiny("fraud_round", trace=True)
    assert res["failed"] == 0
    assert res["per_layer"]["retrieval.fraud_proof_bytes"] > 0
    assert res["per_layer"]["cit.verify_membership_calls"] > 0


def test_wrong_outcome_is_counted(monkeypatch):
    def tampered(commitment, params, chunks):
        return workloads.retrieval.Block(b"not the block")

    monkeypatch.setattr(workloads.retrieval, "reconstruct", tampered)
    res = tiny("bulk_block", n_ops=2)
    assert res["failed"] == 3
    assert res["failures"] == {workloads.WRONG_OUTCOME: 3}


def test_total_failure_prints_an_incorrect_result(monkeypatch, capsys):
    # every operation raises, the untimed warm-up included
    def broken(commitment, params, chunks):
        raise ValueError("broken reader")

    monkeypatch.setattr(workloads.retrieval, "reconstruct", broken)
    monkeypatch.setattr(run, "spawn", lambda args, deadline, setup_only=False: tiny(
        "bulk_block", n_ops=2))
    assert run.main(["--workload", "bulk_block", "--seed", "1", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 3, "failed": 3, "metrics": {}}


def test_bad_code_is_checked_against_the_chunks_received():
    # code_seed 6 gives the SMALL geometry a base code (k=8, n=32) with the
    # stopping set {0, 3, 4, 5} (see tests/conftest.py)
    params = cit.TreeParams(**{**SMALL.__dict__, "code_seed": 6, "gate_trials": 0})
    geo = workloads.Geometry(params, 512)
    tree = cit.build_tree(bytes(range(256)) * 2, params)
    base = tree.layers[-1].symbols
    keep = [i for i in range(32) if i not in (0, 3, 4, 5)]
    units = [(i, base[i].tobytes(), cit.sample_pom(tree, i)) for i in keep]
    with pytest.raises(workloads.BadCode) as err:
        workloads.retrieval.reconstruct(
            tree.commitment, params, workloads.retrieval.ChunkSet(tree.commitment, units)
        )
    assert workloads.first_stall(geo, keep) == (3, frozenset({0, 3, 4, 5}))
    assert workloads.same_stall(geo, err.value, keep)
    # the client received chunk 0: a reader that stalls without it lost it
    assert workloads.first_stall(geo, keep + [0]) is None
    assert not workloads.same_stall(geo, err.value, keep + [0])
    # with half the chunks the reader owes a report of too few, not BadCode
    few = keep[:16]
    layer, unknown = workloads.first_stall(geo, few)
    claim = workloads.BadCode("stall", layer=layer, layer_size=geo.params.layer_sizes(512)[layer],
                              known_fraction=1.0, unknown=unknown)
    assert not workloads.same_stall(geo, claim, few)


def test_self_time_of_hand_built_span_tree():
    spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 3.0, 6.0, 0, 0),  # overlaps b: together they cover [1, 6]
        Span("d", 2.0, 3.0, 1, 0),  # grandchild of a, inside b
        Span("e", 8.0, 12.0, 0, 0),  # clipped to a's end: covers [8, 10]
    ]
    kids = children_of(spans)
    assert kids[0] == [1, 2, 4]
    assert self_time(spans, kids, 0) == pytest.approx(3.0)
    assert self_time(spans, kids, 1) == pytest.approx(2.0)
    assert self_time(spans, kids, 3) == pytest.approx(1.0)
    assert self_time(spans, kids, 0, only=lambda n: n == "c") == pytest.approx(7.0)


def test_missing_wrapper_is_reported_and_the_run_continues(monkeypatch):
    original = cit.walk_pom
    tracer = Tracer([Wrap("daoracle.cit", "no_such_function"), Wrap("daoracle.nowhere", "f"),
                     Wrap("daoracle.cit", "walk_pom")])
    assert tracer.missing == ["cit.no_such_function", "nowhere.f"]
    tracer.install()
    assert cit.walk_pom is not original
    tracer.uninstall()
    assert cit.walk_pom is original

    # a refactor that renames cit.walk_pom and keeps node verification
    monkeypatch.delattr(cit, "walk_pom")
    monkeypatch.setattr(
        workloads.orc, "verify_symbol", lambda com, params, pom: original(com, params, pom) is not None
    )
    res = tiny("honest_round", trace=True)
    assert res["failed"] == 0
    assert res["missing"] == ["cit.walk_pom_calls", "cit.walk_pom_node_s", "cit.walk_pom_s"]
    assert "cit.walk_pom_s" not in res["per_layer"]
    assert "retrieval.ingest_s" in res["per_layer"]


def test_clock_scales_wall_time_by_the_probes_seen():
    ref = clock.REF_PROBE_S
    c = clock.Clock(elasticity=1.3)
    c.times, c.probes = [1.0, 1.5, 3.0], [2 * ref, 2 * ref, 8 * ref]
    c.costs = [5 * ref, 5 * ref, 17 * ref]
    half, eighth = 0.5**1.3, 0.125**1.3
    # two probes inside at twice the reference time: half speed, and their
    # handlers' whole time is not counted
    assert c.scaled(0.9, 2.0, anchor=2 * ref) == pytest.approx((1.1 - 10 * ref) * half)
    # no probe inside and no anchor: the last probe before stands in
    assert c.factor(2.0, 2.5) == pytest.approx(half)
    assert c.factor(3.5, 4.0) == pytest.approx(eighth)


def test_clock_start_and_stop_restore_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    c = clock.Clock()
    c.start()
    try:
        deadline = time.perf_counter() + 0.5
        while not c.probes and time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        c.stop()
    assert c.probes and all(p > 0 for p in c.probes)
    assert all(cost >= p for cost, p in zip(c.costs, c.probes))
    assert c.spent == pytest.approx(sum(c.costs))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize(
    "n, value, pct, beyond", [(20, 10, 50, 10), (25, 15, 60, 10), (832, 816, 98, 16), (8, 4, 50, 4)]
)
def test_tail_has_ten_samples_beyond(n, value, pct, beyond):
    assert stats.tail(range(1, n + 1)) == (value, pct, beyond)


def test_fails_without_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "protobench", tmp_path / "protobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "protobench/run.py", "--workload", "bulk_block", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
