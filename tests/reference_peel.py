"""Reference peelers, none of them on the package's one peeling engine:
the first two as the package had them before it, the reconstructor in the
tree layout the package has now.

- ``peel_symbols`` rescans every equation on each pass, solving in turn;
  ``peel_decode`` decodes a code's uint8 rows with it, in the result form
  of ``conftest.peel_rows``, which drives the package's engine over
  values.
- ``peel_pattern`` runs batched passes over a knownness pattern;
  ``first_fail_count`` binary-searches the erasure count with it, and
  ``estimate_undecodable_ratio`` / ``is_bad_code`` are the alpha gate built
  on that: the exact smallest stalling erased fraction over the trials,
  compared with alpha.
- ``Reconstructor`` is a plain retrieval reconstructor whose
  ``_peel_layer`` rescans every equation on each pass, over numpy symbol
  rows, and checks each solve against its slot in the decoded parent (the
  commitment at the root layer); it walks each proof on its own with
  ``reference_proofs.walk_pom``.

``conftest.peel_rows``, ``codec.is_bad_code`` and
``retrieval._Reconstructor`` must agree with them: the same outcomes and
the same equation numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from daoracle.cit import Commitment, TreeParams, geometry, layer_code
from daoracle.codec import CodeSpec, ParityEquation
from daoracle.errors import BadCode, ParameterError
from daoracle.retrieval import (
    Block,
    ChunkSet,
    Fraud,
    FraudMember,
    FraudProof,
    HashMismatch,
    Insufficient,
    ReconstructionResult,
)
from daoracle.util import HASH_BYTES, MASK64, sha256
from reference_proofs import walk_pom


@dataclass(frozen=True)
class UndecodableEstimate:
    ratio: float
    trials: int


def _csr(code: CodeSpec):
    """CSR member arrays plus the parity-output index of each equation."""
    counts = [len(eq) for eq in code.parity_checks]
    eq_ptr = np.zeros(len(counts) + 1, dtype=np.int32)
    eq_ptr[1:] = np.cumsum(counts)
    eq_idx = np.fromiter(
        (i for eq in code.parity_checks for i in eq),
        dtype=np.int32,
        count=int(eq_ptr[-1]),
    )
    parity_of = np.fromiter(
        (eq[-1] for eq in code.parity_checks),
        dtype=np.int32,
        count=len(counts),
    )
    return eq_ptr, eq_idx, parity_of


def peel_symbols(eq_ptr, eq_idx, sym, known):
    n = known.shape[0]
    n_eq = eq_ptr.shape[0] - 1
    verified = np.zeros(n_eq, dtype=np.bool_)
    progress = True
    while progress:
        progress = False
        for e in range(n_eq):
            if verified[e]:
                continue
            unknowns = 0
            last_unknown = -1
            for j in range(eq_ptr[e], eq_ptr[e + 1]):
                if not known[eq_idx[j]]:
                    unknowns += 1
                    last_unknown = eq_idx[j]
            if unknowns == 0:
                acc = np.zeros(sym.shape[1], dtype=np.uint8)
                for j in range(eq_ptr[e], eq_ptr[e + 1]):
                    acc ^= sym[eq_idx[j], :]
                if acc.any():
                    return 2, e
                verified[e] = True
            elif unknowns == 1:
                sym[last_unknown, :] = 0
                for j in range(eq_ptr[e], eq_ptr[e + 1]):
                    m = eq_idx[j]
                    if m != last_unknown:
                        sym[last_unknown, :] ^= sym[m, :]
                known[last_unknown] = True
                verified[e] = True
                progress = True
    for i in range(n):
        if not known[i]:
            return 1, -1
    return 0, -1


def peel_pattern(eq_ptr, eq_idx, known):
    # Batch passes: solve every degree-1 equation of the pass at once; the
    # closure is order independent.
    if known.all():
        return True
    counts = np.diff(eq_ptr)
    while True:
        unk = ~known[eq_idx]
        unk_per_eq = np.add.reduceat(unk, eq_ptr[:-1]) if len(eq_idx) else np.zeros(0, int)
        deg1 = unk_per_eq == 1
        if not deg1.any():
            break
        member_deg1 = np.repeat(deg1, counts)
        solved = np.unique(eq_idx[member_deg1 & unk])
        known[solved] = True
        if known.all():
            return True
    return bool(known.all())


def first_fail_count(eq_ptr, eq_idx, perm):
    """Smallest erasure count e such that erasing perm[:e] stalls peeling.

    Monotone in e (peeling succeeds from any superset of a decodable known
    set), so binary search applies. Returns a value in [1, n].
    """
    n = perm.shape[0]

    def fails(e):
        known = np.ones(n, dtype=np.bool_)
        known[perm[:e]] = False
        return not peel_pattern(eq_ptr, eq_idx, known)

    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def peel_decode(code: CodeSpec, sym, known) -> tuple[str, int]:
    """Iterative peeling of the uint8 rows ``sym``, in place: rows not in
    the bool array ``known`` are overwritten as they are solved, and
    ``known`` is updated. Returns ("decoded", -1), ("stuck", -1) or
    ("violation", e).

    Equations are scanned in ascending index order each pass and solves take
    effect immediately, so the outcome (including which equation e a
    violation names) is deterministic.
    """
    eq_ptr, eq_idx, _ = _csr(code)
    status, viol = peel_symbols(eq_ptr, eq_idx, sym, known)
    return ("decoded", "stuck", "violation")[status], int(viol)


def estimate_undecodable_ratio(
    code: CodeSpec, trials: int, rng_seed: int
) -> UndecodableEstimate:
    """Monte-Carlo estimate of the smallest erased fraction that stalls
    peeling, minimized over random erasure orders (conservative from below).
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    eq_ptr, eq_idx, _ = _csr(code)
    rng = np.random.default_rng(np.uint64(rng_seed & MASK64))
    n = code.n_coded
    best = n
    for _ in range(trials):
        perm = rng.permutation(n).astype(np.int64)
        best = min(best, first_fail_count(eq_ptr, eq_idx, perm))
        if best == 1:
            break
    return UndecodableEstimate(best / n, trials)


def is_bad_code(code: CodeSpec, alpha_target: float, trials: int, rng_seed: int) -> bool:
    """True when the estimated undecodable ratio misses the target gate."""
    return estimate_undecodable_ratio(code, trials, rng_seed).ratio < alpha_target


class Reconstructor:
    def __init__(self, commitment: Commitment, params: TreeParams, chunks: ChunkSet):
        self.commitment = commitment
        self.params = params
        geo = geometry(params, commitment.block_len)
        self.sizes, self.sys_counts, self.depth = geo.sizes, geo.sys_counts, geo.depth
        self.values: dict[tuple[int, int], bytes] = {}
        self.layer_done: dict[int, np.ndarray] = {}
        self._ingest(chunks)

    def _ingest(self, chunks: ChunkSet):
        # each proof walked on its own, its harvest merged first-wins
        for index, symbol, pom in chunks.units:
            if index != pom.base_index or symbol != pom.base_symbol:
                continue
            harvest = walk_pom(self.commitment, self.params, pom)
            if harvest is None:
                continue
            for key, val in harvest.values.items():
                self.values.setdefault(key, val)

    def _expected_hash(self, u: int, x: int) -> bytes:
        """The commitment's entry at the root layer, else the digest at x's
        slot of its decoded parent."""
        if u == 0:
            return self.commitment.root[x]
        s_par = self.sys_counts[u - 1]
        parent = self.layer_done[u - 1][x % s_par].tobytes()
        pos = x // s_par
        return parent[pos * HASH_BYTES : (pos + 1) * HASH_BYTES]

    def _members(self, u: int, eq: ParityEquation, sym, skip: int = -1):
        return tuple(
            FraudMember(idx, sym[idx].tobytes(), self._ancestors(u, idx))
            for idx in eq
            if idx != skip
        )

    def _ancestors(self, u: int, index: int) -> tuple[bytes, ...]:
        ancestors, x = [], index
        for w in range(u - 1, -1, -1):
            x %= self.sys_counts[w]
            ancestors.append(self.layer_done[w][x].tobytes())
        return tuple(ancestors)

    def run(self) -> ReconstructionResult:
        params = self.params
        for u in range(self.depth + 1):
            m = self.sizes[u]
            code = layer_code(params, m)
            width = params.symbol_size if u == self.depth else params.batch * HASH_BYTES
            sym = np.zeros((m, width), dtype=np.uint8)
            known = np.zeros(m, dtype=bool)
            for idx in range(m):
                val = self.values.get((u, idx))
                if val is not None:
                    sym[idx] = np.frombuffer(val, dtype=np.uint8)
                    known[idx] = True

            outcome = self._peel_layer(u, code, sym, known)
            if outcome is not None:
                return outcome
            if not known.all():
                frac = known.mean()
                if frac >= 1 - params.alpha:
                    raise BadCode(
                        f"layer {u} stalled with {frac:.4f} of symbols known",
                        layer=u,
                        layer_size=m,
                        known_fraction=float(frac),
                        unknown=frozenset(int(i) for i in np.nonzero(~known)[0]),
                        code_seed=code.seed,
                    )
                return self._insufficient(u, known)
            self.layer_done[u] = sym
        base = self.layer_done[self.depth]
        s_base = self.sys_counts[self.depth]
        data = base[:s_base].tobytes()[: self.commitment.block_len]
        return Block(data)

    def _peel_layer(self, u, code: CodeSpec, sym, known):
        """Sequential hash-aware peeling; returns a Fraud outcome or None."""
        eq_ptr, eq_idx, _ = _csr(code)
        n_eq = len(code.parity_checks)
        verified = np.zeros(n_eq, dtype=bool)
        progress = True
        while progress:
            progress = False
            for e in range(n_eq):
                if verified[e]:
                    continue
                members = eq_idx[eq_ptr[e] : eq_ptr[e + 1]]
                unknown = [int(i) for i in members if not known[i]]
                eq = code.parity_checks[e]
                if not unknown:
                    acc = np.zeros(sym.shape[1], dtype=np.uint8)
                    for i in members:
                        acc ^= sym[i]
                    if acc.any():
                        return Fraud(FraudProof(u, e, self._members(u, eq, sym), None))
                    verified[e] = True
                elif len(unknown) == 1:
                    x = unknown[0]
                    acc = np.zeros(sym.shape[1], dtype=np.uint8)
                    for i in members:
                        if i != x:
                            acc ^= sym[i]
                    expected = self._expected_hash(u, x)
                    if sha256(acc.tobytes()) != expected:
                        mismatch = HashMismatch(x, expected, self._ancestors(u, x))
                        members = self._members(u, eq, sym, skip=x)
                        return Fraud(FraudProof(u, e, members, mismatch))
                    sym[x] = acc
                    known[x] = True
                    verified[e] = True
                    progress = True
        return None

    def _insufficient(self, stalled: int, known) -> Insufficient:
        fractions = []
        for u in range(self.depth + 1):
            if u in self.layer_done:
                fractions.append((u, 1.0))
            elif u == stalled:
                fractions.append((u, float(known.mean())))
            else:
                have = sum(1 for (w, _i) in self.values if w == u)
                fractions.append((u, have / self.sizes[u]))
        return Insufficient(tuple(fractions))
