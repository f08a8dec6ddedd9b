"""Feasibility arithmetic, chunk assignment, coverage bounds, tail bounds."""

import math
from itertools import combinations

import numpy as np
import pytest

from daoracle import _kernels, dispersal as dp
from daoracle.errors import ParameterError

from reference_design import exact_failure_rate


class TestFeasibility:
    def test_counting_infeasible(self):
        params = dp.DispersalParams(gamma=0.1, eta=0.875, lam=0.5)
        assert dp.feasibility(params) is dp.Feasibility.INFEASIBLE

    def test_reference_operating_point_is_feasible(self):
        # gamma/lam = 3.0 > ln 8 ~ 2.079
        params = dp.DispersalParams(gamma=0.02, eta=0.875, lam=1 / 150)
        assert dp.feasibility(params) is dp.Feasibility.FEASIBLE

    def test_vanishing_eta_is_always_feasible(self):
        params = dp.DispersalParams(gamma=0.5, eta=1e-9, lam=1.0)
        assert dp.feasibility(params) is dp.Feasibility.FEASIBLE

    def test_gap_is_reported_not_resolved(self):
        # eta < gamma/lam < ln(1/(1-eta))
        params = dp.DispersalParams(gamma=0.5, eta=0.48, lam=1.0)
        assert params.eta < params.gamma / params.lam < math.log(1 / (1 - params.eta))
        assert dp.feasibility(params) is dp.Feasibility.INDETERMINATE

    def test_counting_line_is_in_the_gap(self):
        # gamma/lam is eta as written, though the float 0.02 / 0.1 is
        # 0.19999999999999998, below the float 0.2
        params = dp.DispersalParams(gamma=0.02, eta=0.2, lam=0.1)
        assert params.gamma / params.lam < params.eta
        assert dp.feasibility(params) is dp.Feasibility.INDETERMINATE

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            dp.DispersalParams(gamma=0.0, eta=0.5, lam=0.5)
        with pytest.raises(ParameterError):
            dp.DispersalParams(gamma=0.5, eta=1.5, lam=0.5)


class TestAssignment:
    def test_partition_scale_one_chunk_per_node(self):
        design = dp.assign_chunks(12, 12, 1.0, seed=4)
        assert design.k_per_node == 1

    def test_non_integral_chunk_count_rejected(self):
        with pytest.raises(ParameterError):
            dp.assign_chunks(1000, 9000, 1 / 150, seed=0)

    def test_chunk_count_overflowing_a_float_rejected(self):
        # a subnormal lam lies in (0, 1], yet M / (N * lam) is infinite
        with pytest.raises(ParameterError, match="must be a positive integer"):
            dp.chunks_per_node(32, 8, 1e-320)

    def test_same_seed_same_design(self):
        a = dp.assign_chunks(120, 6, 0.5, seed=9)
        b = dp.assign_chunks(120, 6, 0.5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(
            a.assignments, dp.assign_chunks(120, 6, 0.5, seed=10).assignments
        )


class TestCoverage:
    def test_empty_subset_is_zero(self):
        design = dp.assign_chunks(60, 4, 0.5, seed=2)
        assert dp.coverage(design, []) == 0.0

    def test_single_node_bounded_by_its_slots(self):
        design = dp.assign_chunks(60, 4, 0.5, seed=2)
        assert dp.coverage(design, [1]) <= design.k_per_node / design.n_chunks

    def test_monotone_under_supersets(self):
        design = dp.assign_chunks(200, 10, 0.25, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            size = int(rng.integers(1, 9))
            subset = sorted(rng.choice(10, size=size, replace=False).tolist())
            extra = sorted(set(subset) | {int(rng.integers(0, 10))})
            assert dp.coverage(design, extra) >= dp.coverage(design, subset)

    def test_feasible_design_covers_eta_from_all_nodes(self):
        # gamma/lam = 2.5 > ln 8: with every node answering, the distinct
        # fraction clears eta with lots of slack
        for seed in range(5):
            design = dp.assign_chunks(1000, 20, 0.2, seed=seed)
            assert dp.coverage(design, range(20)) >= 0.875

    def test_counting_bound_holds_everywhere(self):
        # any gamma*N nodes hold at most min(1, gamma/lam) of the chunks
        lam = 0.25
        design = dp.assign_chunks(200, 10, lam, seed=6)
        rng = np.random.default_rng(2)
        for _ in range(100):
            size = int(rng.integers(1, 11))
            subset = rng.choice(10, size=size, replace=False).tolist()
            gamma = size / 10
            assert dp.coverage(design, subset) <= min(1.0, gamma / lam) + 1e-12


class TestVerifyDesign:
    def test_tiny_exhaustive(self):
        # the reference enumerates every subset and counts against
        # dispersal.coverage
        design = dp.assign_chunks(120, 6, 0.5, seed=9)
        rate, total = exact_failure_rate(design, gamma=0.5, eta=0.5)
        assert total == math.comb(6, 3)
        failures = sum(
            dp.coverage(design, subset) < 0.5 for subset in combinations(range(6), 3)
        )
        assert rate == failures / total

    def test_montecarlo_matches_exhaustive_on_tiny_design(self):
        design = dp.assign_chunks(120, 6, 0.5, seed=9)
        exact, _total = exact_failure_rate(design, 0.5, 0.6)
        mc = dp.verify_design(design, 0.5, 0.6, trials=4000, seed=3)
        assert abs(mc.failure_rate - exact) <= 4 * mc.stderr + 0.02

    def test_infeasible_regime_always_fails(self):
        # gamma/lam = 0.5 < eta = 0.875: counting forces failure rate 1.0
        design = dp.assign_chunks(400, 20, 0.5, seed=7)
        check = dp.verify_design(design, 0.25, 0.875, trials=300, seed=1)
        assert check.failure_rate == 1.0

    @pytest.mark.parametrize("trials", [0, -5])
    def test_fewer_than_one_trial_is_a_parameter_error(self, trials):
        design = dp.assign_chunks(120, 6, 0.5, seed=9)
        with pytest.raises(ParameterError, match="trials"):
            dp.verify_design(design, 0.5, 0.6, trials=trials)

    @pytest.mark.parametrize("n,gamma,eta", [(5, 0.5, 0.6), (25, 0.28, 0.28)])
    def test_gamma_n_and_eta_m_are_counted_exactly(self, n, gamma, eta):
        # one distinct chunk per node: any ceil(gamma*N) nodes hold exactly
        # that many chunks, which is eta*M here, so no subset fails. 2.5
        # nodes rounds to 2 by banker's rounding, and the float 0.28 * 25 is
        # 7.000000000000001, above the 7 chunks that 7 nodes hold
        design = dp.DispersalDesign(n, n, 1, np.arange(n, dtype=np.int64).reshape(n, 1))
        assert dp.verify_design(design, gamma, eta, trials=50, seed=1).failure_rate == 0.0
        assert exact_failure_rate(design, gamma, eta)[0] == 0.0

    def test_montecarlo_deterministic_under_seed(self):
        design = dp.assign_chunks(200, 10, 0.25, seed=5)
        a = dp.verify_design(design, 0.4, 0.7, trials=500, seed=11)
        b = dp.verify_design(design, 0.4, 0.7, trials=500, seed=11)
        assert a == b


class TestTailBound:
    def test_boundary_is_inapplicable(self):
        assert dp.tail_bound(0.875, math.log(8)) is None

    def test_printed_formula_value(self):
        # direct evaluation: x = 0.125 * e^3, f = (x-1)^2 / (e^3 (x+1))
        x = 0.125 * math.exp(3)
        expect = (x - 1) ** 2 / (math.exp(3) * (x + 1))
        got = dp.tail_bound(0.875, 3.0)
        assert got == pytest.approx(expect)
        assert got == pytest.approx(0.0324, abs=2e-4)

    def test_empirical_tail_respects_the_bound(self):
        # balls-in-bins: rho*M draws from M bins, count distinct
        # (10**4 trials of 3 * 10**4 draws exceed a design's slot cap, so
        # assign_chunks cannot draw them)
        m, rho, eta = 10_000, 3.0, 0.875
        f = dp.tail_bound(eta, rho)
        rng = np.random.default_rng(8)
        distinct = np.concatenate([
            _kernels.count_distinct(rng.integers(0, m, size=(100, int(rho * m))))
            for _ in range(100)
        ])
        observed = float(np.mean(distinct / m < eta))
        assert observed <= math.exp(-f * m)

    def test_entropy_peak(self):
        assert dp._entropy_nats(0.5) == pytest.approx(math.log(2))

    def test_bound_vanishes_with_m(self):
        small = dp.invalid_design_bound(50, 500, gamma=0.3, eta=0.875, lam=0.1)
        large = dp.invalid_design_bound(50, 5000, gamma=0.3, eta=0.875, lam=0.1)
        assert large < small
        assert dp.invalid_design_bound(50, 10**6, 0.3, 0.875, 0.1) < 1e-100

    def test_bound_requires_feasible_regime(self):
        with pytest.raises(ParameterError):
            dp.invalid_design_bound(50, 5000, gamma=0.1, eta=0.875, lam=0.1)


def test_bound_dominates_observed_failures():
    # feasible-regime grid: Monte-Carlo failure rate never exceeds the
    # analytic bound by more than 3 standard errors
    grid = [
        (20, 1000, 0.5, 0.875, 0.2),
        (20, 1000, 0.6, 0.875, 0.25),
        (50, 1000, 0.3, 0.875, 0.1),
        (50, 2000, 0.4, 0.75, 0.25),
    ]
    for n, m, gamma, eta, lam in grid:
        design = dp.assign_chunks(m, n, lam, seed=n + m)
        bound = dp.invalid_design_bound(n, m, gamma, eta, lam)
        check = dp.verify_design(design, gamma, eta, trials=600, seed=n)
        assert check.failure_rate <= min(1.0, bound) + 3 * check.stderr + 1e-9
