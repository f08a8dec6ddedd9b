"""Cross-layer reconstruction from dispersed chunks, and fraud proofs.

Reconstruction seeds every layer's known symbols from the collected
membership proofs, then decodes top-down: the root is the commitment
verbatim, and each layer below is peeled with its own code. Every solved
symbol whose committed digest is pinned by some collected sibling tuple is
checked against it; every fully known equation is checked for zero XOR;
after a layer completes, each parent aggregate is recomputed and compared
with the (already certified) layer above. Any contradiction yields a
compact incorrect-coding proof a third party can verify against the
commitment alone.

A stall at >= (1 - alpha) known symbols indicts the code, not the data,
and raises BadCode; a stall below that returns Insufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cit import (
    Commitment,
    MembershipPath,
    ProofOfMembership,
    TreeParams,
    geometry,
    layer_code,
    verify_membership,
    walk_pom,
)
from .codec import CodeSpec, ParityEquation, _csr
from .errors import BadCode, ParameterError
from .util import HASH_BYTES, sha256


@dataclass(frozen=True)
class ChunkSet:
    commitment: Commitment
    units: tuple[tuple[int, bytes, ProofOfMembership], ...]


@dataclass(frozen=True)
class FraudMember:
    index: int
    value: bytes
    path: Optional[MembershipPath]  # None only for root-layer members


@dataclass(frozen=True)
class HashMismatch:
    """The committed digest the equation contradicts: if the data satisfied
    the equation, the symbol at `index` would XOR out to a value whose
    digest differs from `expected_hash`."""

    index: int
    expected_hash: bytes
    path: MembershipPath


@dataclass(frozen=True)
class FraudProof:
    layer: int  # depth: 0 = root ... L = base
    equation_no: int
    equation: ParityEquation
    members: tuple[FraudMember, ...]
    mismatch: Optional[HashMismatch]


@dataclass(frozen=True)
class Block:
    data: bytes


@dataclass(frozen=True)
class Fraud:
    proof: FraudProof


@dataclass(frozen=True)
class Insufficient:
    known_fractions: tuple[tuple[int, float], ...]


ReconstructionResult = Union[Block, Fraud, Insufficient]


def _xor(values, width: int) -> bytes:
    acc = np.zeros(width, dtype=np.uint8)
    for v in values:
        acc ^= np.frombuffer(v, dtype=np.uint8)
    return acc.tobytes()


def verify_fraud_proof(commitment: Commitment, params: TreeParams, proof: FraudProof) -> bool:
    """Stateless check of an incorrect-coding proof against the commitment
    alone. The proof carries the field types ``FraudProof`` declares, as
    ``serialize.decode_fraud_proof`` builds them; every value in it is
    checked, so a malformed proof is False."""
    if params != commitment.params or len(commitment.root) != params.root_size:
        return False
    try:
        geo = geometry(params, commitment.block_len)
    except ParameterError:
        return False
    depth = geo.depth
    u = proof.layer
    if not 0 <= u <= depth:
        return False
    try:
        code = layer_code(params, geo.sizes[u])
    except (BadCode, ParameterError):
        return False
    if not 0 <= proof.equation_no < len(code.parity_checks):
        return False
    if code.parity_checks[proof.equation_no] != proof.equation:
        return False
    width = params.symbol_size if u == depth else HASH_BYTES

    eq_idx = set(proof.equation.symbol_indices)
    seen = {}
    for member in proof.members:
        if member.index in seen or member.index not in eq_idx:
            return False
        if len(member.value) != width:
            return False
        if u == 0:
            if member.path is not None or commitment.root[member.index] != member.value:
                return False
        else:
            if (
                member.path is None
                or member.path.layer != u
                or member.path.index != member.index
                or not verify_membership(commitment, params, sha256(member.value), member.path)
            ):
                return False
        seen[member.index] = member.value

    if proof.mismatch is None:
        if set(seen) != eq_idx:
            return False
        return any(_xor(seen.values(), width))

    mm = proof.mismatch
    if u == 0 or mm.index not in eq_idx or set(seen) != eq_idx - {mm.index}:
        return False
    if len(mm.expected_hash) != HASH_BYTES:
        return False
    if mm.path.layer != u or mm.path.index != mm.index:
        return False
    if not verify_membership(commitment, params, mm.expected_hash, mm.path):
        return False
    derived = _xor(seen.values(), width)
    return sha256(derived) != mm.expected_hash


def fraud_proof_size(proof: FraudProof) -> int:
    """Byte size of the canonical encoding."""
    from .serialize import encode_fraud_proof

    return len(encode_fraud_proof(proof))


class _Reconstructor:
    def __init__(self, commitment: Commitment, params: TreeParams, chunks: ChunkSet):
        self.commitment = commitment
        self.params = params
        geo = geometry(params, commitment.block_len)
        self.sizes, self.sys_counts, self.depth = geo.sizes, geo.sys_counts, geo.depth
        self.values: dict[tuple[int, int], bytes] = {}
        self.tuples: dict[tuple[int, int], tuple[bytes, ...]] = {}
        self.layer_done: dict[int, np.ndarray] = {}
        self.solver: dict[tuple[int, int], int] = {}
        self.unprovable = False
        self._ingest(chunks)

    def _ingest(self, chunks: ChunkSet):
        # the walks share one digest memo, as in cit.walk_poms; each goes
        # through this module's walk_pom name, which per-proof timers wrap
        digests: dict = {}
        for index, symbol, pom in chunks.units:
            if index != pom.base_index or symbol != pom.base_symbol:
                continue
            harvest = walk_pom(self.commitment, self.params, pom, digests)
            if harvest is None:
                continue
            for key, val in harvest.values.items():
                self.values.setdefault(key, val)
            for key, tup in harvest.tuples.items():
                self.tuples.setdefault(key, tup)

    def _tuple_at(self, w: int, par: int):
        """Committed child-digest tuple of parent (w, par): harvested from a
        proof, or regenerated once layer w+1 is fully decoded."""
        tup = self.tuples.get((w, par))
        if tup is not None:
            return tup
        child = self.layer_done.get(w + 1)
        if child is None:
            return None
        s_par = self.sys_counts[w]
        tup = tuple(sha256(child[x].tobytes()) for x in range(par, len(child), s_par))
        self.tuples[(w, par)] = tup
        return tup

    def _expected_hash(self, u: int, x: int):
        s_par = self.sys_counts[u - 1]
        tup = self._tuple_at(u - 1, x % s_par)
        return None if tup is None else tup[x // s_par]

    def _path(self, u: int, x: int) -> Optional[MembershipPath]:
        levels = []
        cur = x
        for w in range(u - 1, -1, -1):
            s_par = self.sys_counts[w]
            par, pos = cur % s_par, cur // s_par
            tup = self._tuple_at(w, par)
            if tup is None:
                return None
            levels.append(tup[:pos] + tup[pos + 1 :])
            cur = par
        return MembershipPath(u, x, tuple(levels))

    def _members(self, u: int, eq: ParityEquation, sym, skip: int = -1):
        """Fraud members with membership paths; None when some path is not
        derivable from the collected material."""
        members = []
        for idx in eq.symbol_indices:
            if idx == skip:
                continue
            if u == 0:
                members.append(FraudMember(idx, self.commitment.root[idx], None))
                continue
            path = self._path(u, idx)
            if path is None:
                return None
            members.append(FraudMember(idx, sym[idx].tobytes(), path))
        return tuple(members)

    def run(self) -> ReconstructionResult:
        params = self.params
        for u in range(self.depth + 1):
            m = self.sizes[u]
            code = layer_code(params, m)
            width = params.symbol_size if u == self.depth else HASH_BYTES
            sym = np.zeros((m, width), dtype=np.uint8)
            known = np.zeros(m, dtype=bool)
            if u == 0:
                for idx, val in enumerate(self.commitment.root):
                    sym[idx] = np.frombuffer(val, dtype=np.uint8)
                known[:] = True
            else:
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
            if u >= 1:
                outcome = self._check_aggregation(u, sym)
                if outcome is not None:
                    return outcome
        if self.unprovable:
            return self._insufficient(self.depth, np.ones(1, dtype=bool))
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
                if not unknown:
                    acc = np.zeros(sym.shape[1], dtype=np.uint8)
                    for i in members:
                        acc ^= sym[i]
                    if acc.any():
                        fraud = self._equation_fraud(u, code, e, sym)
                        if fraud is not None:
                            return fraud
                        self.unprovable = True
                    verified[e] = True
                elif len(unknown) == 1:
                    x = unknown[0]
                    acc = np.zeros(sym.shape[1], dtype=np.uint8)
                    for i in members:
                        if i != x:
                            acc ^= sym[i]
                    expected = self._expected_hash(u, x) if u >= 1 else None
                    if expected is not None and sha256(acc.tobytes()) != expected:
                        fraud = self._mismatch_fraud(u, code, e, x, expected, sym)
                        if fraud is not None:
                            return fraud
                        self.unprovable = True
                        verified[e] = True
                        continue
                    sym[x] = acc
                    known[x] = True
                    self.solver[(u, x)] = e
                    verified[e] = True
                    progress = True
        return None

    def _equation_fraud(self, u, code, e, sym):
        eq = code.parity_checks[e]
        members = self._members(u, eq, sym)
        if members is None:
            return None
        return Fraud(FraudProof(u, e, eq, members, None))

    def _mismatch_fraud(self, u, code, e, x, expected, sym):
        eq = code.parity_checks[e]
        path = self._path(u, x)
        members = self._members(u, eq, sym, skip=x)
        if path is None or members is None:
            return None
        return Fraud(FraudProof(u, e, eq, members, HashMismatch(x, expected, path)))

    def _check_aggregation(self, u, sym):
        """Recompute each parent aggregate of the completed layer u against
        the certified layer above."""
        s_par = self.sys_counts[u - 1]
        parent = self.layer_done[u - 1]
        hashes = [sha256(sym[x].tobytes()) for x in range(sym.shape[0])]
        for k in range(s_par):
            agg = sha256(b"".join(hashes[k::s_par]))
            if agg == parent[k].tobytes():
                continue
            tup = self.tuples.get((u - 1, k))
            if tup is None:
                self.unprovable = True
                continue
            for pos in range(self.params.batch):
                x = k + pos * s_par
                if hashes[x] != tup[pos]:
                    e = self.solver.get((u, x))
                    if e is None:
                        continue
                    code = layer_code(self.params, self.sizes[u])
                    fraud = self._mismatch_fraud(u, code, e, x, tup[pos], sym)
                    if fraud is not None:
                        return fraud
            self.unprovable = True
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


def reconstruct(
    commitment: Commitment, params: TreeParams, chunks: ChunkSet
) -> ReconstructionResult:
    if params != commitment.params:
        raise ParameterError("params do not match the commitment echo")
    return _Reconstructor(commitment, params, chunks).run()
