"""Chunk-to-node assignment and its feasibility arithmetic.

A design draws every slot of every node's chunk list i.i.d. uniformly from
the M chunk indices (so assignments are multisets and coverage counts
distinct indices). Feasibility of (gamma, eta, lam) follows the two-sided
test: infeasible when gamma/lam < eta by counting, feasible when
gamma/lam exceeds ln(1/(1-eta)); the gap is reported as indeterminate.
All logarithms are natural.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ParameterError
from .util import MASK64, as_written, derive_seed

# cap on a design's slots N * k: the (N, k) int64 assignment array and the
# design text written from it are sized by counts read from files
MAX_DESIGN_SLOTS = 1 << 20


class Feasibility(enum.Enum):
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class DispersalParams:
    gamma: float  # fraction of nodes queried
    eta: float  # fraction of distinct chunks required
    lam: float  # dispersal efficiency M/(N*k)

    def __post_init__(self):
        for name in ("gamma", "eta", "lam"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ParameterError(f"{name} must lie in (0, 1], got {v}")


@dataclass(frozen=True)
class DispersalDesign:
    n_chunks: int  # M
    n_nodes: int  # N
    k_per_node: int  # M / (N * lam)
    assignments: np.ndarray  # (N, k) int64, multisets of chunk indices


def feasibility(params: DispersalParams) -> Feasibility:
    gamma, eta, lam = params.gamma, params.eta, params.lam
    # the counting side is exact on the values as written, as the chain
    # threshold is, so gamma/lam = eta lies in the gap; ln stays on floats
    if as_written(gamma) < as_written(eta) * as_written(lam):
        return Feasibility.INFEASIBLE
    if eta < 1 and gamma / lam > math.log(1 / (1 - eta)):
        return Feasibility.FEASIBLE
    return Feasibility.INDETERMINATE


def chunks_per_node(n_chunks: int, n_nodes: int, lam: float) -> int:
    """k = M / (N * lam), checked before it sizes anything: M and N at
    least 1, lam in (0, 1], k a positive integer and the design's N * k
    slots at most ``MAX_DESIGN_SLOTS``; raises ParameterError otherwise."""
    for name, value in (("n_chunks", n_chunks), ("n_nodes", n_nodes)):
        # lam <= 1 makes N * k at least M and at least N
        if not 1 <= value <= MAX_DESIGN_SLOTS:
            raise ParameterError(f"{name} must lie in [1, {MAX_DESIGN_SLOTS}], got {value}")
    if not 0 < lam <= 1:
        raise ParameterError(f"lam must lie in (0, 1], got {lam}")
    k = n_chunks / (n_nodes * lam)
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ParameterError(
            f"chunks per node M/(N*lam) = {k} must be a positive integer"
        )
    k = int(round(k))
    if n_nodes * k > MAX_DESIGN_SLOTS:
        raise ParameterError(
            f"design of {n_nodes} x {k} slots exceeds the cap of {MAX_DESIGN_SLOTS}"
        )
    return k


def assign_chunks(n_chunks: int, n_nodes: int, lam: float, seed: int) -> DispersalDesign:
    k = chunks_per_node(n_chunks, n_nodes, lam)
    rng = np.random.default_rng(np.uint64(seed & MASK64))
    assignments = rng.integers(0, n_chunks, size=(n_nodes, k), dtype=np.int64)
    return DispersalDesign(n_chunks, n_nodes, k, assignments)


def coverage(design: DispersalDesign, nodes) -> float:
    """Distinct-chunk fraction held by a node subset."""
    nodes = sorted(set(int(i) for i in nodes))
    if any(not 0 <= i < design.n_nodes for i in nodes):
        raise ParameterError("node subset out of range")
    if not nodes:
        return 0.0
    rows = design.assignments[nodes].reshape(1, -1)
    distinct = int(_kernels.count_distinct(rows)[0])
    return distinct / design.n_chunks


@dataclass(frozen=True)
class DesignCheck:
    failure_rate: float
    trials: int

    @property
    def stderr(self) -> float:
        p = self.failure_rate
        return math.sqrt(max(p * (1 - p), 0.0) / self.trials)


def verify_design(
    design: DispersalDesign,
    gamma: float,
    eta: float,
    trials: int = 1000,
    seed: int = 0,
) -> DesignCheck:
    """Monte Carlo estimate of the fraction of gamma-N node subsets whose
    coverage falls below eta, over ``trials`` subsets drawn uniformly.

    Any gamma fraction of the nodes is at least gamma*N of them, so a subset
    is ceil(gamma*N) nodes; it fails when it holds fewer than eta*M distinct
    chunks. Both products are exact on the decimals gamma and eta were
    written as (``util.as_written``), as the chain threshold is."""
    n = design.n_nodes
    take = math.ceil(as_written(gamma) * n)
    if not 1 <= take <= n:
        raise ParameterError(f"gamma*N = {gamma * n} must lie in (0, N]")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    # a distinct count is an integer, so it is below eta*M exactly when it
    # is below the ceiling
    need = math.ceil(as_written(eta) * design.n_chunks)
    rng = np.random.default_rng(np.uint64(derive_seed("verify-design", seed)))
    batch = max(1, min(trials, (1 << 22) // max(take * design.k_per_node, 1)))
    failures = 0
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        subsets = np.stack([rng.choice(n, size=take, replace=False) for _ in range(b)])
        rows = design.assignments[subsets].reshape(b, take * design.k_per_node)
        distinct = _kernels.count_distinct(rows)
        failures += int(np.count_nonzero(distinct < need))
        done += b
    return DesignCheck(failures / trials, trials)


def tail_bound(eta: float, rho: float):
    """Balls-in-bins tail exponent f(eta, rho) with exp(-f*M) bounding
    P(fewer than eta*M distinct after rho*M uniform draws).

    Returns None when the bound does not apply, i.e. (1-eta)*e^rho <= 1.
    """
    x = (1 - eta) * math.exp(rho)
    if x <= 1:
        return None
    return (x - 1) ** 2 / (math.exp(rho) * (x + 1))


def invalid_design_bound(
    n_nodes: int, n_chunks: int, gamma: float, eta: float, lam: float
) -> float:
    """exp(N*H_e(gamma) - M*f(eta, gamma/lam)) in the feasible regime."""
    rho = gamma / lam
    f = tail_bound(eta, rho)
    if f is None:
        raise ParameterError(
            f"gamma/lam = {rho} is not above ln(1/(1-eta)); bound inapplicable"
        )
    h = _entropy_nats(gamma)
    return math.exp(n_nodes * h - n_chunks * f)


def _entropy_nats(p: float) -> float:
    if not 0 <= p <= 1:
        raise ParameterError("entropy argument must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def design_to_text(design: DispersalDesign) -> str:
    """One node per line, assigned chunk indices space-separated."""
    return "\n".join(" ".join(str(i) for i in row) for row in design.assignments) + "\n"

