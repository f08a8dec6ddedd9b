"""Utility table arithmetic and equilibrium checks vs brute enumeration."""

import dataclasses

import numpy as np
import pytest

from daoracle import incentives as inc
from daoracle.errors import ParameterError

Action = inc.Action


def params(**overrides):
    base = dict(
        p_audit=0.2,
        stake_oracle=50.0,
        submission_fee=0.5,
        block_reward=100.0,
        reward_fraction=0.6,
        verify_cost=1.0,
        n_signatures=10,
    )
    base.update(overrides)
    return inc.IncentiveParams(**base)


class TestUtilityTable:
    def test_offline_is_zero(self):
        assert inc.oracle_utility(Action.OFFLINE, params()) == 0.0

    def test_oracle_defect_under_certain_audit(self):
        p = params(p_audit=1.0)
        got = inc.oracle_utility(Action.DEFECT, p)
        assert got == -p.stake_oracle - p.submission_fee

    def test_oracle_cooperate_row(self):
        p = params()
        assert inc.oracle_utility(Action.COOPERATE, p) == 0.6 * 100 / 10 - 0.5 - 1.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ParameterError):
            params(verify_cost=-1)
        with pytest.raises(ParameterError):
            params(p_audit=1.5)

    @pytest.mark.parametrize("value", [-0.5, 1.5, 5])
    def test_rejects_a_reward_share_outside_the_unit_interval(self, value):
        # eta_b is a share of B: above 1 the signers would be paid more
        # than the block reward
        with pytest.raises(ParameterError, match=r"reward_fraction must lie in \[0, 1\]"):
            params(reward_fraction=value)

    def test_reward_share_admits_both_ends(self):
        assert params(reward_fraction=0.0).oracle_reward == 0.0
        assert params(reward_fraction=1.0).oracle_reward == 10.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_rejects_every_number_a_float_does_not_hold(self, value):
        # json reads NaN, Infinity and ints past the float range; every
        # comparison with NaN is False, so the range checks alone let it by
        for field in dataclasses.fields(inc.IncentiveParams):
            with pytest.raises(ParameterError, match=f"{field.name} must be finite"):
                params(**{field.name: value})


class TestAllCooperate:
    def test_no_audit_with_positive_cost_is_not_equilibrium(self):
        check = inc.check_allC_equilibrium(params(p_audit=0.0))
        assert not check.is_equilibrium
        assert check.binding_constraints["audit_deterrence_slack"] <= 0

    def test_positive_slack_is_equilibrium_and_enumeration_agrees(self):
        p = params()
        check = inc.check_allC_equilibrium(p)
        assert check.is_equilibrium
        assert check.binding_constraints["audit_deterrence_slack"] > 0
        assert check.binding_constraints["participation_slack"] > 0
        best, _ = inc.best_oracle_deviation("all_c", p)
        assert best is Action.COOPERATE

    def test_boundary_reward_is_not_strict_equilibrium(self):
        # eta_b*B/k == r_m + c_s exactly
        p = params(block_reward=25.0, reward_fraction=0.6, n_signatures=10)
        assert p.oracle_reward == p.submission_fee + p.verify_cost
        check = inc.check_allC_equilibrium(p)
        assert not check.is_equilibrium
        assert check.binding_constraints["participation_slack"] == 0.0

    def test_binding_constraints_are_the_closed_forms(self):
        p = params()
        check = inc.check_allC_equilibrium(p)
        audit = p.p_audit * (p.stake_oracle + p.oracle_reward) - p.verify_cost
        reward = p.oracle_reward - p.submission_fee - p.verify_cost
        assert check.binding_constraints["audit_deterrence_slack"] == pytest.approx(audit)
        assert check.binding_constraints["participation_slack"] == pytest.approx(reward)
        printed = p.p_audit * (p.stake_oracle + 1) - p.verify_cost
        assert check.binding_constraints["printed_audit_form"] == pytest.approx(printed)


class TestAllOffline:
    def test_always_equilibrium(self):
        assert inc.check_allO_equilibrium(params()).is_equilibrium

    def test_zero_verify_cost_still_holds_by_tie(self):
        check = inc.check_allO_equilibrium(params(verify_cost=0.0))
        assert check.is_equilibrium
        assert check.binding_constraints["cooperate_gain"] == 0.0

    def test_enumeration_never_beats_offline(self):
        p = params()
        best, gain = inc.best_oracle_deviation("all_o", p)
        assert gain <= 0.0


def test_checks_agree_with_enumeration_on_random_draws():
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = params(
            p_audit=float(rng.uniform(0, 1)),
            stake_oracle=float(rng.uniform(0, 100)),
            submission_fee=float(rng.uniform(0, 5)),
            block_reward=float(rng.uniform(0, 200)),
            reward_fraction=float(rng.uniform(0, 1)),
            verify_cost=float(rng.uniform(0, 5)),
            n_signatures=int(rng.integers(1, 40)),
        )
        c_check = inc.check_allC_equilibrium(p)
        best_c, _ = inc.best_oracle_deviation("all_c", p)
        strict = (
            inc.oracle_utility(Action.COOPERATE, p) > inc.oracle_utility(Action.DEFECT, p)
        ) and (inc.oracle_utility(Action.COOPERATE, p) > 0)
        assert c_check.is_equilibrium == strict
        if c_check.is_equilibrium:
            assert best_c is Action.COOPERATE

        o_check = inc.check_allO_equilibrium(p)
        _best_o, gain = inc.best_oracle_deviation("all_o", p)
        assert o_check.is_equilibrium
        assert gain <= 0.0
