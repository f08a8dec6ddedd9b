"""Seeded sparse-graph erasure codes over equal-length byte symbols.

A code is systematic: coded symbols [0, k) are the inputs verbatim, symbols
[k, n) are XOR parities. Construction is anchored pseudo-random: parity j
always includes systematic symbol ``j mod k`` (so every input is covered)
plus further distinct inputs drawn uniformly, capped so no equation exceeds
``max_eq_degree`` members including the parity itself. Duplicate input sets
are rejection-resampled. Tiny codes (k <= 2) degenerate to repetition.

Everything is a pure function of its arguments including seeds; two calls
with equal arguments produce bit-identical codes.

The alpha gate runs the one peeling engine (``_kernels.Peel``) and only
follows its closure: a code is bad when one of its seeded erasure trials,
erasing the largest count below the alpha threshold, leaves a symbol
unknown. Retrieval drives the same engine over symbol values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import ParameterError
from .util import MASK64, as_rate


class ParityEquation(tuple):
    """Coded-symbol indices, strictly increasing, whose bytewise XOR must
    be the zero symbol. The equation is its own index tuple, the one form
    the encoder, the peel and fraud proofs read."""

    __slots__ = ()

    def __new__(cls, indices):
        eq = super().__new__(cls, indices)
        if len(eq) < 2:
            raise ParameterError("parity equation needs at least 2 symbols")
        if any(b <= a for a, b in zip(eq, eq[1:])):
            raise ParameterError("equation indices must be strictly increasing")
        return eq

    @property
    def symbol_indices(self) -> tuple[int, ...]:
        # the equation itself, kept only for protobench's first_stall,
        # which reads it; package and tests iterate the equation
        return self


@dataclass(frozen=True)
class CodeSpec:
    n_systematic: int
    n_coded: int
    seed: int
    parity_checks: tuple[ParityEquation, ...]

    @cached_property
    def touching(self) -> tuple[tuple[int, ...], ...]:
        """``touching[x]``, the equations that hold symbol x, ascending:
        the incidence the peeling engine walks, derived from
        ``parity_checks`` on first use and kept on this instance, as
        tuples, since every caller of a cached code shares it."""
        touching: list[list[int]] = [[] for _ in range(self.n_coded)]
        for e, eq in enumerate(self.parity_checks):
            for i in eq:
                touching[i].append(e)
        return tuple(map(tuple, touching))


def generate_code(n_systematic: int, rate, max_eq_degree: int, seed: int) -> CodeSpec:
    """Build the deterministic code for (k, rate, d, seed).

    rate must be 1/m for an integer m >= 2, so the anchor assignment
    ``parity j -> input j mod k`` covers every systematic symbol.
    """
    k = n_systematic
    r = as_rate(rate)
    if k < 1:
        raise ParameterError("n_systematic must be >= 1")
    if r.numerator != 1 or r.denominator < 2:
        raise ParameterError("rate must be 1/m with integer m >= 2")
    if max_eq_degree < 2:
        raise ParameterError("max_eq_degree must be >= 2")
    n = k * r.denominator
    n_parity = n - k

    equations: list[ParityEquation] = []
    if k <= 2:
        for j in range(n_parity):
            equations.append(ParityEquation(sorted((j % k, k + j))))
    else:
        rng = np.random.default_rng(np.uint64(seed & MASK64))
        hi = min(max_eq_degree - 1, k)
        lo = min(2, hi)
        seen: set[frozenset[int]] = set()
        for j in range(n_parity):
            anchor = j % k
            inputs = frozenset((anchor,))
            for _ in range(32):
                deg_in = int(rng.integers(lo, hi + 1))
                # a draw from range(k - 1), shifted past the anchor: the
                # same stream as a draw from the k - 1 other inputs
                extra = rng.choice(k - 1, size=deg_in - 1, replace=False)
                inputs = frozenset((anchor, *(extra + (extra >= anchor)).tolist()))
                if inputs not in seen:
                    break
            seen.add(inputs)
            equations.append(ParityEquation((*sorted(inputs), k + j)))
    return CodeSpec(k, n, seed & MASK64, tuple(equations))


def encode_array(code: CodeSpec, inputs: np.ndarray, written=None) -> np.ndarray:
    """Encode a (k, width) uint8 array into the full (n, width) codeword.
    ``written``, when given, is called with each parity row, k to n - 1 in
    order (parity j is symbol k + j), as soon as it is written."""
    if inputs.shape[0] != code.n_systematic:
        raise ParameterError(
            f"expected {code.n_systematic} input symbols, got {inputs.shape[0]}"
        )
    # each parity row is the last member of exactly one equation, which
    # writes all of it
    sym = np.empty((code.n_coded, inputs.shape[1]), dtype=np.uint8)
    sym[: code.n_systematic] = inputs
    _kernels.xor_encode(code.parity_checks, sym, written)
    return sym


def encode_rows(code: CodeSpec, rows: list[bytes]) -> list[bytes]:
    """``encode_array``'s codeword of k equal-width bytes rows, as bytes:
    the input rows themselves, then the parity rows XORed as Python ints,
    which at a digest layer's q * 32 bytes beats a numpy call."""
    width, k, xor = len(rows[0]), code.n_systematic, _kernels.xor_members
    values = [*map(_kernels.int_from_digest, rows), *[0] * (code.n_coded - k)]
    for eq in code.parity_checks:
        values[eq[-1]] = xor(values, eq, eq[-1])
    return rows + [_kernels.digest_from_int(v, width) for v in values[k:]]


def is_bad_code(code: CodeSpec, alpha_target: float, trials: int, rng_seed: int) -> bool:
    """True when some seeded erasure trial stalls peeling with fewer than
    ``alpha_target`` of the n coded symbols erased.

    Trial t erases the first E symbols of the t-th permutation drawn from
    ``rng_seed``, E the largest count with E / n < alpha_target. Peeling is
    monotone in the known set, so a trial that decodes with E erased
    decodes with any shorter prefix erased: the verdict is whether the
    smallest stalling erased fraction over the trials misses the target.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    n = code.n_coded
    # E from the comparison the verdict is stated in, never from
    # ceil(alpha * n) - 1, so float rounding cannot move a verdict
    erased = bisect_left(range(1, n + 1), alpha_target, key=lambda e: e / n)
    if erased == 0:
        return False
    rng = np.random.default_rng(np.uint64(rng_seed & MASK64))
    for _ in range(trials):
        peel = _kernels.Peel(code, rng.permutation(n)[:erased].tolist())
        for _e, x in peel.steps():
            if x >= 0:
                peel.solve(x)
        if 0 in peel.known:
            return True
    return False
