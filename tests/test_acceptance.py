"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one PASS line (visible with -s or in verbose failure
output); pytest's own per-test verdicts mirror them. Run:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from daoracle import codec, dispersal as dp, incentives as inc
from daoracle import metrics as mx, retrieval as rt, simnet as sn
from daoracle.cit import TreeParams
from daoracle.dispersal import DispersalParams

from conftest import (
    covered_layers, pairs_table, params_for, peel_rows, random_geometries, sizes_for,
    voted_commitments,
)
from fraction_geometry import pom_pairs
from gf2 import solve_erasure

ETA = 0.875


def report(number, detail):
    print(f"\nACCEPTANCE {number}: PASS ({detail})")


def test_criterion_1_sibling_property():
    t0 = time.time()
    geometries = [(4, Fraction(1, 4), 8, 3)] + random_geometries(3)
    checked = 0
    for t, r, q, levels in geometries:
        sizes, params = sizes_for(t, r, q, levels), params_for(t, r, q)  # root .. base
        layer_ids = list(range(len(sizes) - 2, 0, -1))
        for i in range(sizes[-1]):
            pairs = pom_pairs(params, sizes, i)
            prev = i
            for u, (p, e) in zip(layer_ids, pairs):
                s_own = int(r * sizes[u])
                assert p == i % s_own and e == s_own + i % (sizes[u] - s_own)
                assert prev % s_own == p, "chain parent differs from sample"
                s_up = int(r * sizes[u - 1])
                assert p % s_up == e % s_up, "pair parents differ"
                prev = p
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"sibling property, {checked} base indices over 4 geometries, {elapsed:.2f}s")


def test_criterion_2_layer_coverage():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    geometries = [(4, Fraction(1, 4), 8, 3)] + random_geometries(2)
    total = 0
    for t, r, q, levels in geometries:
        sizes = sizes_for(t, r, q, levels)
        m_base = sizes[-1]
        need = math.ceil(ETA * m_base)
        intermediate = sizes[-2:0:-1]
        table = pairs_table(t, r, q, levels)
        for _ in range(10_000):
            subset = rng.choice(m_base, size=need, replace=False)
            covered = covered_layers(table, subset)
            for m, w in zip(intermediate, covered):
                assert len(w) >= ETA * m, f"coverage lost at layer size {m}"
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, f"layer coverage property, {total} eta-subsets, {elapsed:.1f}s")


def test_criterion_3_codec_oracle_equivalence():
    t0 = time.time()
    codes = []
    for rate, ks in (("1/2", range(1, 9)), ("1/4", range(1, 5))):
        for k in ks:
            codes.append(codec.generate_code(k, rate, 8, seed=300 + k))
    patterns = decoded = 0
    for code in codes:
        n = code.n_coded
        rng = np.random.default_rng(n)
        inputs = b"".join(rng.bytes(2) for _ in range(code.n_systematic))
        cw = codec.encode_array(code, np.frombuffer(inputs, dtype=np.uint8).reshape(-1, 2))
        words = [row.tobytes() for row in cw]
        bit = 1 << np.arange(n)
        for mask in range(1 << n):
            # the package's peel on the rows of ``mask``, the rest zeroed
            known = (mask & bit) != 0
            sym = cw * known[:, None]
            out, _e = peel_rows(code, sym, known)
            assert out != "violation", "violation on honest data"
            if out == "decoded":
                decoded += 1
                assert np.array_equal(sym, cw), "peel produced a different codeword"
                given = {i: words[i] for i in range(n) if mask >> i & 1}
                status, solution = solve_erasure(code, given)
                assert status == "decoded"
                assert [solution[i] for i in range(n)] == words
            patterns += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        3,
        f"peeling vs elimination oracle, {len(codes)} codes, "
        f"{patterns} patterns ({decoded} decodable), {elapsed:.1f}s",
    )


FEASIBLE_GRID = [
    # (N, M, gamma, lam, eta), all with gamma/lam > ln(1/(1-eta))
    (20, 1000, 0.5, 0.20, 0.875),
    (20, 1000, 0.6, 0.25, 0.875),
    (20, 2000, 0.5, 0.20, 0.875),
    (40, 2000, 0.5, 0.20, 0.875),
    (50, 5000, 0.5, 0.20, 0.875),
    (50, 5000, 0.3, 0.10, 0.875),
    (20, 1000, 0.4, 0.25, 0.75),
    (20, 2000, 0.3, 0.20, 0.75),
    (40, 1000, 0.3, 0.20, 0.75),
    (50, 1000, 0.4, 0.25, 0.75),
    (50, 2000, 0.4, 0.20, 0.75),
    (40, 4000, 0.25, 0.10, 0.75),
]


def test_criterion_4_dispersal_bound():
    t0 = time.time()
    trials = 600
    for n, m, gamma, lam, eta in FEASIBLE_GRID:
        assert gamma / lam > math.log(1 / (1 - eta)), "grid point not feasible"
        design = dp.assign_chunks(m, n, lam, seed=1000 + n + m)
        bound = dp.invalid_design_bound(n, m, gamma, eta, lam)
        check = dp.verify_design(design, gamma, eta, trials=trials, seed=n * m)
        assert check.failure_rate <= min(1.0, bound) + 3 * check.stderr + 1e-12, (
            f"failure rate {check.failure_rate} above bound {bound} at "
            f"(N={n}, M={m}, gamma={gamma}, lam={lam}, eta={eta})"
        )
    for n, m, gamma, lam, eta in [(20, 1000, 0.2, 0.5, 0.875), (50, 1000, 0.1, 0.4, 0.75)]:
        assert gamma / lam < eta
        design = dp.assign_chunks(m, n, lam, seed=7)
        check = dp.verify_design(design, gamma, eta, trials=200, seed=3)
        assert check.failure_rate == 1.0, "counting bound must force failure"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, f"dispersal bound on {len(FEASIBLE_GRID)}-point grid, {elapsed:.1f}s")


def test_criterion_5_reference_operating_point():
    lam_table = (1 - 2 * 0.49) / math.log(1 / (1 - ETA))
    cost = mx.CostParams(
        block_size=12e6,
        n_nodes=9000,
        symbol_size=48e3,
        root_size=16,
        rate=0.25,
        batch=8,
        max_eq_degree=8,
        lam=lam_table,
    )
    storage = mx.storage_cost(cost)
    comm = mx.communication_cost(cost)
    proof = mx.fraud_proof_cost(cost)
    assert storage == pytest.approx(597e3, rel=0.05)
    assert comm == pytest.approx(5.38e9, rel=0.05)
    assert proof == pytest.approx(339e3, rel=0.05)
    text_cost = mx.CostParams(
        block_size=12e6,
        n_nodes=9000,
        symbol_size=48e3,
        root_size=16,
        rate=0.25,
        batch=8,
        max_eq_degree=8,
        lam=1 / 150,
    )
    k = mx.chunks_per_node(text_cost)
    assert abs(k - 17) <= 1
    report(
        5,
        f"storage {storage/1e3:.0f} kB, comm {comm/1e9:.2f} GB, "
        f"proof {proof/1e3:.0f} kB, {k:.1f} chunks/node",
    )


SCENARIO_TREE = TreeParams(
    symbol_size=2048,
    root_size=4,
    rate=Fraction(1, 4),
    batch=8,
    max_eq_degree=8,
    alpha=0.125,
    code_seed=11,
    gate_trials=24,
)
SCENARIO_DISP = DispersalParams(gamma=0.5, eta=0.875, lam=0.2)


def scenario(counts, strategy="honest"):
    return sn.ScenarioConfig(
        n_nodes=20,
        beta=0.25,
        tree=SCENARIO_TREE,
        dispersal=SCENARIO_DISP,
        block_size=65536,
        behaviors=sn.behaviors_from_counts(20, counts),
        n_clients=3,
        proposer_strategy=strategy,
        rounds=1,
        master_seed=7,
    )


def test_criterion_6_end_to_end_protocol(monkeypatch):
    t0 = time.time()

    # (a) all honest: commit plus identical reconstruction by 3 clients
    trace = sn.run_scenario(scenario({}))
    round0 = trace.rounds[0]
    assert round0["committed"]
    assert [r["outcome"] for r in round0["retrievals"]] == ["block"] * 3
    assert all(r["matches_proposal"] for r in round0["retrievals"])
    assert len({r["sha256"] for r in round0["retrievals"]}) == 1

    # (b) floor(beta*N) = 5 silent adversaries: Termination still holds
    trace_b = sn.run_scenario(scenario({"silent": 5}))
    assert trace_b.rounds[0]["committed"]
    assert trace_b.rounds[0]["votes"] == 15  # exactly the threshold

    # (c) 5 withhold-after-vote: Availability still holds
    trace_c = sn.run_scenario(scenario({"withhold_after_vote": 5}))
    assert trace_c.rounds[0]["committed"]
    assert [r["outcome"] for r in trace_c.rounds[0]["retrievals"]] == ["block"] * 3
    assert all(r["matches_proposal"] for r in trace_c.rounds[0]["retrievals"])

    # (d) invalid-coding proposer: every honest client outputs the null
    # block and the chain holds a fraud proof that verifies
    commitments = voted_commitments(monkeypatch)
    trace_d = sn.run_scenario(scenario({}, strategy="invalid_coding"))
    monkeypatch.undo()
    assert trace_d.rounds[0]["committed"]
    assert [r["outcome"] for r in trace_d.rounds[0]["retrievals"]] == ["fraud"] * 3
    assert any(line.startswith("FRAUD") for line in trace_d.chain_lines)
    assert trace_d.fraud_records
    assert rt.verify_fraud_proof(commitments[0], SCENARIO_TREE, trace_d.fraud_records[0])

    # determinism of every scenario under its seed
    assert sn.run_scenario(scenario({})).to_json() == trace.to_json()
    assert (
        sn.run_scenario(scenario({}, strategy="invalid_coding")).to_json()
        == trace_d.to_json()
    )
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(6, f"4 protocol scenarios at N=20, {elapsed:.1f}s")


def test_criterion_7_worst_case_scaling():
    lam = (1 - 2 * 0.49) / math.log(1 / (1 - ETA))
    rows = []
    for mb in (1, 4, 16, 64, 256):
        b = mb * 1e6
        cost = mx.CostParams(
            block_size=b,
            n_nodes=9000,
            symbol_size=2000 * math.log2(b),
            root_size=16,
            rate=0.25,
            batch=8,
            max_eq_degree=8,
            lam=lam,
        )
        rows.append((b, cost))
    logs = np.array([math.log(b) for b, _ in rows])
    proofs = np.array([mx.fraud_proof_cost(c) for _, c in rows])
    design = np.stack([logs, np.ones_like(logs)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, proofs, rcond=None)
    residual = np.abs(design @ coeffs - proofs) / proofs
    assert residual.max() < 0.01, "fraud proof is not a*log b + c within 1%"
    overheads = [mx.normal_case_overhead(c) for _, c in rows]
    band = max(overheads) / min(overheads)
    assert band < 2.0, "normal-case overhead left the 2x band"
    report(
        7,
        f"P ~ a*log b + c with max residual {residual.max():.2e}; "
        f"overhead band {band:.2f}x",
    )


def test_criterion_8_incentive_checks():
    rng = np.random.default_rng(88)
    agreements = 0
    for _ in range(100):
        draws = [float(rng.uniform(0, high)) for high in (1, 100, 20, 40, 5, 200, 1, 5, 5)]
        # draws 2, 3 and 8 stood for the committee and proposer stakes and
        # the aggregation cost, which no oracle-node utility reads; they are
        # still drawn, so that the rng stream gives the same 100 games
        params = inc.IncentiveParams(
            p_audit=draws[0],
            stake_oracle=draws[1],
            submission_fee=draws[4],
            block_reward=draws[5],
            reward_fraction=draws[6],
            verify_cost=draws[7],
            n_signatures=int(rng.integers(1, 40)),
        )
        coop = inc.oracle_utility(inc.Action.COOPERATE, params)
        defect = inc.oracle_utility(inc.Action.DEFECT, params)
        check_c = inc.check_allC_equilibrium(params)
        best, _ = inc.best_oracle_deviation("all_c", params)
        assert check_c.is_equilibrium == (coop > defect and coop > 0)
        assert check_c.is_equilibrium == (
            best is inc.Action.COOPERATE and coop > max(defect, 0.0)
        )
        # the two closed-form conditions are exactly the returned slacks
        audit_form = (
            params.p_audit * (params.stake_oracle + params.oracle_reward)
            - params.verify_cost
        )
        reward_form = (
            params.oracle_reward - params.submission_fee - params.verify_cost
        )
        assert check_c.binding_constraints["audit_deterrence_slack"] == pytest.approx(
            audit_form
        )
        assert check_c.binding_constraints["participation_slack"] == pytest.approx(
            reward_form
        )

        check_o = inc.check_allO_equilibrium(params)
        _, best_gain = inc.best_oracle_deviation("all_o", params)
        assert check_o.is_equilibrium and best_gain <= 0.0
        agreements += 1
    report(8, f"equilibrium checks vs enumeration on {agreements} draws")
