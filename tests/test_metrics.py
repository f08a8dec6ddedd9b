"""Closed-form cost formulas at the reference operating point."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from daoracle import metrics as mx
from daoracle.errors import ParameterError

# reference 12 MB / 9000-node operating point
B, N = 12e6, 9000
OPERATING = dict(
    block_size=B,
    n_nodes=N,
    symbol_size=48e3,
    root_size=16,
    rate=0.25,
    batch=8,
    max_eq_degree=8,
)
ETA, BETA = 0.875, 0.49


def reference_lambda():
    return mx.lambda_from_beta(BETA, ETA)


def independent_storage_cost() -> float:
    """Same formula recomputed through Decimal arithmetic, term by term,
    as an independent check on the float evaluation."""
    getcontext().prec = 50
    b = Decimal("12e6")
    n = Decimal(9000)
    c = Decimal("48e3")
    t, y, q = Decimal(16), Decimal(32), Decimal(8)
    r = Decimal("0.25")
    lam = Decimal(1 - 2 * BETA) / Decimal(math.log(1 / (1 - ETA)))
    levels = Decimal(
        math.log(float(b / (c * t * r))) / math.log(float(q * r))
    )
    x = t * y + b / (n * r * lam) + (2 * q - 1) * b * y / (n * r * c * lam) * levels
    return float(x)


class TestOperatingPoint:
    def test_storage_cost_at_reference_point(self):
        cost = mx.CostParams(**OPERATING, lam=reference_lambda())
        assert mx.storage_cost(cost) == pytest.approx(597e3, rel=0.05)

    def test_storage_cost_matches_independent_arithmetic(self):
        cost = mx.CostParams(**OPERATING, lam=reference_lambda())
        assert mx.storage_cost(cost) == pytest.approx(
            independent_storage_cost(), rel=1e-9
        )

    def test_communication_at_reference_point(self):
        cost = mx.CostParams(**OPERATING, lam=reference_lambda())
        assert mx.communication_cost(cost) == pytest.approx(5.38e9, rel=0.05)

    def test_fraud_proof_at_reference_point(self):
        cost = mx.CostParams(**OPERATING, lam=reference_lambda())
        assert mx.fraud_proof_cost(cost) == pytest.approx(339e3, rel=0.05)
        # the formula lands near 347 kB; the 339 kB reference figure sits
        # within 5% of it
        assert mx.fraud_proof_cost(cost) == pytest.approx(346.7e3, rel=0.005)

    def test_chunks_per_node_at_text_lambda(self):
        cost = mx.CostParams(**OPERATING, lam=1 / 150)
        assert abs(mx.chunks_per_node(cost) - 17) <= 1

    def test_huge_lambda_leaves_only_the_root(self):
        cost = mx.CostParams(**OPERATING, lam=1e15)
        assert mx.storage_cost(cost) == pytest.approx(16 * 32, rel=1e-6)

    def test_degenerate_single_symbol_equation(self):
        cost = mx.CostParams(**{**OPERATING, "max_eq_degree": 1}, lam=reference_lambda())
        levels = mx.layer_count(cost)
        assert mx.fraud_proof_cost(cost) == pytest.approx(32 * 7 * levels)

    def test_communication_is_linear_in_n(self):
        one = mx.CostParams(**{**OPERATING, "n_nodes": 1}, lam=reference_lambda())
        many = mx.CostParams(**{**OPERATING, "n_nodes": 4500}, lam=reference_lambda())
        assert mx.communication_cost(one) == pytest.approx(mx.storage_cost(one))
        # N*X is not N-proportional termwise (X depends on N), but N*X at
        # N nodes equals N times the X evaluated at that same N
        assert mx.communication_cost(many) == pytest.approx(
            4500 * mx.storage_cost(many)
        )

    def test_rejects_shrinkless_geometry(self):
        with pytest.raises(ParameterError):
            mx.CostParams(**{**OPERATING, "batch": 4, "rate": 0.25}, lam=0.01)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    @pytest.mark.parametrize("name", [*OPERATING, "lam"])
    def test_rejects_a_number_a_float_does_not_hold(self, name, value):
        # NaN passes every range check and reached the tables as a bare NaN
        raw = {**OPERATING, "lam": reference_lambda(), name: value}
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            mx.CostParams(**raw)

    @pytest.mark.parametrize("value", [0, -4])
    @pytest.mark.parametrize("name", ["n_nodes", "root_size", "max_eq_degree"])
    def test_rejects_a_count_below_one(self, name, value):
        # zero nodes or root digests divided by zero, a negative root size
        # took the log of a negative, and degree 0 gave a negative proof size
        with pytest.raises(ParameterError, match=name):
            mx.CostParams(**{**OPERATING, name: value}, lam=reference_lambda())

    @pytest.mark.parametrize(
        "change",
        [
            # a divisor, N*r*lam, N*r*c*lam or c*t*r, rounds to 0
            {"n_nodes": 1, "lam": 5e-324},
            {"symbol_size": 5e-324, "root_size": 1},
            # b/(c*t*r) is below 1, or overflows
            {"block_size": 1000},
            {"block_size": 1e308, "symbol_size": 1e-300},
        ],
    )
    def test_rejects_a_geometry_the_closed_forms_cannot_take(self, change):
        with pytest.raises(ParameterError, match=r"b/\(c\*t\*r\)"):
            mx.CostParams(**{**OPERATING, "lam": reference_lambda(), **change})

    @pytest.mark.parametrize("eta", [1e-320, 1e-17, 0.0, 1.0, float("nan")])
    def test_lambda_refuses_an_eta_that_leaves_no_log(self, eta):
        # 1 - eta rounding to 1 divided by ln(1) = 0
        with pytest.raises(ParameterError, match="eta"):
            mx.lambda_from_beta(BETA, eta)

    @pytest.mark.parametrize("beta", [-0.1, 0.5, 7, float("nan")])
    def test_baselines_refuse_a_beta_outside_the_tolerated_range(self, beta):
        cost = mx.CostParams(**OPERATING, lam=reference_lambda())
        with pytest.raises(ParameterError, match="beta"):
            mx.baseline_table(cost, beta)


class TestScalingLaws:
    def sweep(self):
        lam = reference_lambda()
        rows = []
        for mb in (1, 4, 16, 64, 256):
            b = mb * 1e6
            c = 2000 * math.log2(b)
            cost = mx.CostParams(
                **{**OPERATING, "block_size": b, "symbol_size": c}, lam=lam
            )
            rows.append((b, cost))
        return rows

    def test_fraud_proof_grows_like_log_b(self):
        rows = self.sweep()
        logs = np.array([math.log(b) for b, _ in rows])
        proofs = np.array([mx.fraud_proof_cost(cost) for _, cost in rows])
        design = np.stack([logs, np.ones_like(logs)], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, proofs, rcond=None)
        fitted = design @ coeffs
        residual = np.abs(fitted - proofs) / proofs
        assert residual.max() < 0.01

    def test_normal_case_overhead_stays_in_a_2x_band(self):
        rows = self.sweep()
        overheads = [mx.normal_case_overhead(cost) for _, cost in rows]
        assert max(overheads) / min(overheads) < 2.0


class TestBaselines:
    def rows(self):
        cost = mx.CostParams(**OPERATING, lam=reference_lambda())
        return {r["scheme"]: r for r in mx.baseline_table(cost, BETA)}

    def test_repetition_communication_is_exactly_nb(self):
        assert self.rows()["uncoded (repetition)"]["communication bytes"] == N * B

    def test_uncoded_dispersal_tolerates_one_over_n(self):
        row = self.rows()["uncoded (dispersal)"]
        assert row["max adversary fraction"] == "1/N"
        assert row["communication bytes"] == B

    def test_coded_row_carries_log_b_worst_case(self):
        row = self.rows()["coded dispersal (this package)"]
        assert row["worst storage overhead"] == "O(log b)"
        assert row["communication bytes"] == pytest.approx(5.38e9, rel=0.05)

    def test_csv_has_all_schemes(self):
        cost = mx.CostParams(**OPERATING, lam=reference_lambda())
        text = mx.baseline_csv(mx.baseline_table(cost, BETA))
        assert text.count("\n") == 6  # header + 5 schemes
        assert text.splitlines()[0].startswith("scheme,")
