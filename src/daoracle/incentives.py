"""Utility-table arithmetic and equilibrium condition checks for the
audit-backed voting game, for the one player every check reads: an oracle
node. Its row of the utility table (block committed), per action:

    C: eta_b*B/k - r_m - c_s
    O: 0
    D: -p_a*stk_o + (1-p_a)*eta_b*B/k - r_m

ACeD's proposer and committee rows are not modelled, because no check
reads them.

When no block commits (the all-offline context) a cooperating oracle node
still pays its verification cost and gains nothing.

The all-cooperate check returns the two binding constraints as slacks from
the table itself (cooperate beats defect, cooperate beats offline), so it
always agrees with brute-force deviation enumeration. A unit-reward
shorthand of the audit condition, p_a*(stk+1) > c_s, is reported
alongside for reference but does not drive the verdict.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass

from .errors import ParameterError
from .util import require_finite


class Action(enum.Enum):
    COOPERATE = "C"
    OFFLINE = "O"
    DEFECT = "D"


@dataclass(frozen=True)
class IncentiveParams:
    p_audit: float  # p_a
    stake_oracle: float  # stk_o
    submission_fee: float  # r_m
    block_reward: float  # B
    reward_fraction: float  # eta_b, share of the reward paid to oracle nodes
    verify_cost: float  # c_s
    n_signatures: int  # k, signatures aggregated in the committed signature

    def __post_init__(self):
        require_finite(vars(self))
        for name in ("p_audit", "reward_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ParameterError(f"{name} must lie in [0, 1]")
        for name in ("stake_oracle", "submission_fee", "block_reward", "verify_cost"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if self.n_signatures < 1:
            raise ParameterError("n_signatures must be >= 1")

    @property
    def oracle_reward(self) -> float:
        return self.reward_fraction * self.block_reward / self.n_signatures


def oracle_utility(action: Action, params: IncentiveParams) -> float:
    """An oracle node's exact utility-table entry, block-committed context."""
    if action is Action.OFFLINE:
        return 0.0
    if action is Action.COOPERATE:
        return params.oracle_reward - params.submission_fee - params.verify_cost
    return (
        -params.p_audit * params.stake_oracle
        + (1 - params.p_audit) * params.oracle_reward
        - params.submission_fee
    )


def oracle_utility_uncommitted(action: Action, params: IncentiveParams) -> float:
    """Oracle-node utility when the block never commits: cooperation still
    costs verification, other actions are free and earn nothing."""
    return -params.verify_cost if action is Action.COOPERATE else 0.0


@dataclass(frozen=True)
class EquilibriumCheck:
    is_equilibrium: bool
    binding_constraints: dict

    def __post_init__(self):
        # finite params can overflow a slack
        require_finite(self.binding_constraints)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def check_allC_equilibrium(params: IncentiveParams) -> EquilibriumCheck:
    """All-cooperate is an equilibrium for oracle nodes iff cooperation
    strictly beats both defection and going offline."""
    c = oracle_utility(Action.COOPERATE, params)
    d = oracle_utility(Action.DEFECT, params)
    audit_slack = c - d  # = p_a*(stk_o + reward) - c_s
    reward_slack = c  # = reward - r_m - c_s, offline pays zero
    printed_audit = params.p_audit * (params.stake_oracle + 1) - params.verify_cost
    return EquilibriumCheck(
        is_equilibrium=bool(audit_slack > 0 and reward_slack > 0),
        binding_constraints={
            "audit_deterrence_slack": audit_slack,
            "participation_slack": reward_slack,
            "printed_audit_form": printed_audit,
        },
    )


def check_allO_equilibrium(params: IncentiveParams) -> EquilibriumCheck:
    """All-offline is always an equilibrium: a lone deviator cannot change
    the consensus, so cooperating only burns the verification cost."""
    coop = oracle_utility_uncommitted(Action.COOPERATE, params)
    defect = oracle_utility_uncommitted(Action.DEFECT, params)
    return EquilibriumCheck(
        is_equilibrium=bool(coop <= 0 and defect <= 0),
        binding_constraints={
            "cooperate_gain": coop,
            "defect_gain": defect,
        },
    )


def best_oracle_deviation(
    profile: str, params: IncentiveParams
) -> tuple[Action, float]:
    """Brute-force best response of one oracle node against All-C or All-O.

    Against All-C the block still commits whatever one node does (the
    profile check assumes the threshold is met without the deviator);
    against All-O nothing commits either way.
    """
    if profile == "all_c":
        utilities = {a: oracle_utility(a, params) for a in Action}
    elif profile == "all_o":
        utilities = {a: oracle_utility_uncommitted(a, params) for a in Action}
    else:
        raise ParameterError(f"unknown profile {profile!r}")
    best = max(utilities, key=lambda a: (utilities[a], a.value))
    require_finite({f"best deviation from {profile}": utilities[best]})
    return best, utilities[best]
