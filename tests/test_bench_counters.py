"""The benchmark's deterministic counters, pinned: one traced run of each
tiny geometry of ``protobench/tests/test_protobench.py`` (seed 3, 4
operations), its outputs digest and every per-layer value whose unit is a
count or bytes. A change to the package that moves one of them changes the
work the benchmark measures, which a speed claim must not do unnoticed."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from daoracle import cit  # noqa: E402
from protobench import run, worker, workloads  # noqa: E402

# the geometries of the benchmark's own tests: the 512-byte tree of
# conftest.py, coded layers 32 / 16 / 8 over a root of 4
SMALL = cit.TreeParams(
    symbol_size=64, root_size=4, rate=Fraction(1, 4), batch=8, max_eq_degree=8,
    alpha=0.125, code_seed=5,
)
TINY = {
    "honest_round": workloads.Geometry(SMALL, 512, n_nodes=8, silent=1, withhold=1, lam=0.125),
    "fraud_round": workloads.Geometry(SMALL, 512, n_nodes=8, lam=0.125),
    "bulk_block": workloads.Geometry(SMALL, 512, delivered=0.9),
}

PINNED = {
    "honest_round": (
        "ab0f922ab80e6a693599f81e8f3d30efdcaaaea86c0b4df4bf7ef2cb32a8001c",
        {
            "cit.layer_sizes_calls": 1, "cit.sample_pom_calls": 64,
            "cit.verify_membership_calls": 0, "cit.walk_pom_calls": 128,
            "codec.gated_codes": 4, "oracle.node_verify_s.samples": 16,
            "oracle.stored_bytes_per_node": 28736.0, "oracle.stored_units": 715,
            "serialize.wire_bytes": 229192.0, "serialize.wire_bytes_per_node": 28649.0,
            "sha256_calls.cit": 973, "sha256_calls.oracle": 22,
            "sha256_calls.retrieval": 12, "trace.ops": 2,
        },
    ),
    "fraud_round": (
        "aa9a643214230538775467ba5b4f88544314dcbffce9d4ee46f6f7c4c31f7beb",
        {
            "cit.layer_sizes_calls": 1, "cit.sample_pom_calls": 64,
            "cit.verify_membership_calls": 32, "cit.walk_pom_calls": 128,
            "codec.gated_codes": 4, "oracle.node_verify_s.samples": 16,
            "oracle.stored_bytes_per_node": 28997.0, "oracle.stored_units": 813,
            "retrieval.fraud_proof_bytes": 6847.0,
            "serialize.wire_bytes": 231976.0, "serialize.wire_bytes_per_node": 28997.0,
            "sha256_calls.cit": 1092, "sha256_calls.oracle": 26,
            "sha256_calls.retrieval": 44, "trace.ops": 2,
        },
    ),
    "bulk_block": (
        "53d70197d2cf57a157f5c1cf5a5588e2ce6656aace0fee9ff62fe647aebf132b",
        {
            "cit.layer_sizes_calls": 1, "cit.sample_pom_calls": 64,
            "cit.verify_membership_calls": 0, "cit.walk_pom_calls": 56,
            "codec.gated_codes": 4, "oracle.stored_bytes_per_node": 44752.0,
            "oracle.stored_units": 0, "serialize.wire_bytes": 44752.0,
            "serialize.wire_bytes_per_node": 44752.0, "sha256_calls.cit": 226,
            "sha256_calls.oracle": 0, "sha256_calls.retrieval": 14, "trace.ops": 2,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counters_are_pinned(name):
    cit.layer_code.cache_clear()  # each benchmark process gates its codes once
    res = worker.measure(name, 3, 4, True, t0=0.0, geometry=TINY[name])
    assert res["failed"] == 0 and res["missing"] == []
    counters = {
        metric: value
        for metric, value in res["per_layer"].items()
        if run.unit_of(metric) in ("count", "bytes")
    }
    digest, pinned = PINNED[name]
    assert (res["digest"], counters) == (digest, pinned)
