"""Closed-form cost accounting and analytic baseline comparisons.

Formulas are evaluated exactly as written, with logarithms taken to base
batch*rate and fractional layer counts kept fractional; the simulator
reports measured byte counts separately for comparison. The per-node
storage cost is

    X = t*y + b/(N*r*lam) + (2q-1)*b*y/(N*r*c*lam) * log_{qr}(b/(c*t*r))

communication is N*X, and the incorrect-coding proof size is

    P = (d-1)*c + d*y*(q-1) * log_{qr}(b/(c*t*r)),

y the fixed 32-byte digest (``HASH_BYTES``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import ParameterError
from .util import HASH_BYTES, require_finite


@dataclass(frozen=True)
class CostParams:
    """Only what the closed forms consume; mirrors the tree/dispersal
    parameter tuples without requiring a buildable geometry."""

    block_size: float  # b, bytes
    n_nodes: int  # N
    symbol_size: float  # c, bytes
    root_size: int  # t
    rate: float  # r
    batch: int  # q
    max_eq_degree: int  # d
    lam: float  # dispersal efficiency

    def __post_init__(self):
        require_finite(vars(self))
        if min(self.n_nodes, self.root_size, self.max_eq_degree) < 1:
            raise ParameterError("n_nodes, root_size and max_eq_degree must be >= 1")
        if self.batch * self.rate <= 1:
            raise ParameterError("batch * rate must exceed 1 for the log base")
        if min(self.block_size, self.symbol_size, self.rate, self.lam) <= 0:
            raise ParameterError("sizes, rate and lam must be positive")
        # the closed forms divide by N*r*lam and N*r*c*lam, and a product of
        # positive floats can round to 0; they take the log of b/(c*t*r),
        # which is negative below 1 and can turn the costs negative
        n_r = self.n_nodes * self.rate
        span = self.symbol_size * self.root_size * self.rate
        if not (
            min(n_r * self.lam, n_r * self.symbol_size * self.lam, span) > 0
            and 1 <= self.block_size / span < math.inf
        ):
            raise ParameterError(
                "N*r*lam and N*r*c*lam must be positive, and b/(c*t*r) finite and at least 1"
            )


def lambda_from_beta(beta: float, eta: float) -> float:
    """Largest dispersal efficiency compatible with adversarial fraction
    beta at coverage target eta: (1 - 2*beta) / ln(1/(1-eta)). An eta so
    small that 1 - eta rounds to 1 would divide by ln(1) = 0."""
    if not 0 <= beta < 0.5 or not 0 < 1 - eta < 1:
        raise ParameterError("need beta in [0, 0.5) and 1 - eta in (0, 1)")
    return (1 - 2 * beta) / math.log(1 / (1 - eta))


def layer_count(p: CostParams) -> float:
    """log_{qr}(b / (c*t*r)), kept fractional."""
    return math.log(p.block_size / (p.symbol_size * p.root_size * p.rate)) / math.log(
        p.batch * p.rate
    )


def chunks_per_node(p: CostParams) -> float:
    """k = b / (N * r * c * lam), the unit count each node stores."""
    return p.block_size / (p.n_nodes * p.rate * p.symbol_size * p.lam)


def storage_cost(p: CostParams) -> float:
    """Per-node storage X in bytes."""
    levels = layer_count(p)
    return (
        p.root_size * HASH_BYTES
        + p.block_size / (p.n_nodes * p.rate * p.lam)
        + (2 * p.batch - 1)
        * p.block_size
        * HASH_BYTES
        / (p.n_nodes * p.rate * p.symbol_size * p.lam)
        * levels
    )


def fraud_proof_cost(p: CostParams) -> float:
    """Worst-case proof size P in bytes."""
    levels = layer_count(p)
    return (p.max_eq_degree - 1) * p.symbol_size + p.max_eq_degree * HASH_BYTES * (
        p.batch - 1
    ) * levels


def communication_cost(p: CostParams) -> float:
    return p.n_nodes * storage_cost(p)


def normal_case_overhead(p: CostParams) -> float:
    """N*X / b: bytes moved (or stored network-wide) per block byte."""
    return communication_cost(p) / p.block_size


def worst_case_overhead(p: CostParams) -> float:
    """P / y: proof bytes per byte of the single digest it settles."""
    return fraud_proof_cost(p) / HASH_BYTES


@dataclass(frozen=True)
class MetricsReport:
    storage_cost_bytes: float
    fraud_proof_bytes: float
    communication_bytes: float
    chunks_per_node: float
    normal_case_overhead: float
    worst_case_overhead: float

    def __post_init__(self):
        # finite inputs can overflow a closed form, which json would write
        # as a bare Infinity
        require_finite(vars(self))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def report(p: CostParams) -> MetricsReport:
    return MetricsReport(
        storage_cost_bytes=storage_cost(p),
        fraud_proof_bytes=fraud_proof_cost(p),
        communication_bytes=communication_cost(p),
        chunks_per_node=chunks_per_node(p),
        normal_case_overhead=normal_case_overhead(p),
        worst_case_overhead=worst_case_overhead(p),
    )


BASELINE_COLUMNS = (
    "scheme",
    "max adversary fraction",
    "normal storage overhead",
    "normal download overhead",
    "worst storage overhead",
    "worst download overhead",
    "communication complexity",
    "communication bytes",
)


def baseline_table(coded: CostParams, beta: Optional[float]):
    """Analytic rows for the five dispersal schemes, with asymptotic
    classes and exact byte counts where a closed form exists. A beta of
    None leaves the coded row's adversary fraction empty; a given one lies
    in [0, 0.5)."""
    if beta is not None and not 0 <= beta < 0.5:
        raise ParameterError(f"beta {beta!r} must lie in [0, 0.5)")
    b, n = coded.block_size, coded.n_nodes
    # one tuple per scheme, in BASELINE_COLUMNS order
    rows = (
        ("uncoded (repetition)", "1/2", "O(N)", "O(1)", "O(N)", "O(1)", "O(N*b)", n * b),
        ("uncoded (dispersal)", "1/N", "O(1)", "O(1)", "O(1)", "O(1)", "O(b)", b),
        ("AVID", "1/3", "O(1)", "O(1)", "O(1)", "O(1)", "O(N*b)", n * b),
        ("1D-RS", "1/2", "O(1)", "O(1)", "O(b)", "O(b)", "O(b)", None),
        (
            "coded dispersal (this package)", beta, "O(1)", "O(1)", "O(log b)", "O(log b)",
            "O(b)", communication_cost(coded),
        ),
    )
    for scheme, *_, nbytes in rows:
        if not math.isfinite(nbytes or 0):
            raise ParameterError(f"{BASELINE_COLUMNS[-1]} of {scheme} overflow a float")
    return [dict(zip(BASELINE_COLUMNS, row)) for row in rows]


def baseline_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BASELINE_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
