"""Cross-layer reconstruction from dispersed chunks, and fraud proofs.

Reconstruction seeds every layer's known symbols from the collected
membership proofs, then decodes top-down: the root is the commitment
verbatim, and each layer below is peeled with its own code by the package's
one peeling engine (``_kernels.Peel``), in its solve-in-turn order, so a
fraud proof names the first failing equation of an ascending scan. Every
solved symbol whose committed digest is pinned by some collected sibling
tuple is checked against it, and every fully known equation is checked for
zero XOR; a contradiction there yields a compact incorrect-coding proof a
third party can verify against the commitment alone. After a layer
completes, the aggregate of each parent without a collected tuple is
recomputed and compared with the (already certified) layer above; a
mismatch there only marks the reconstruction unprovable and never yields
a proof. Digest layers XOR their 32-byte symbols as Python ints, here as
in ``cit.build_tree``'s encode, and the base layer as uint8 rows in both,
which are faster at symbol widths of 1 KiB and up.

Each symbol is certified once: ingest walks the collected proofs against
one ``cit.Frontier``, which checks each delivered symbol against the
committed digest in its parent's climbed tuple, a solve under a parent
with a collected tuple is checked at its solve, and only the children of
the parents no collected tuple covers are hashed again, to re-aggregate.

A stall at >= (1 - alpha) known symbols indicts the code, not the data,
and raises BadCode; a stall below that returns Insufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cit import (
    Commitment,
    Frontier,
    MembershipPath,
    ProofOfMembership,
    TreeParams,
    commitment_geometry,
    geometry,
    layer_code,
    verify_membership,
    walk_pom,
)
from ._kernels import Peel, digest_from_int, int_from_digest, xor_members
from .codec import CodeSpec, ParityEquation
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
    geo = commitment_geometry(commitment, params)
    if geo is None:
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

    def committed(index: int, leaf_hash: bytes, path: Optional[MembershipPath]) -> bool:
        """The commitment binds a symbol hashing to ``leaf_hash`` at
        (u, index), by ``path``."""
        return (
            path is not None
            and path.layer == u
            and path.index == index
            and verify_membership(commitment, params, leaf_hash, path)
        )

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
        elif not committed(member.index, sha256(member.value), member.path):
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
    if not committed(mm.index, mm.expected_hash, mm.path):
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
        # known symbols, each certified at ingest, and the collected
        # q-tuples, by position
        self.values, self.tuples = self._ingest(chunks)
        self.layer_done: dict[int, list[bytes]] = {}
        self.unprovable = False

    def _ingest(self, chunks: ChunkSet):
        # the walks share one frontier, as in cit.walk_poms; each goes
        # through this module's walk_pom name, which per-proof timers wrap
        frontier = Frontier(self.commitment, self.params)
        for index, symbol, pom in chunks.units:
            if index == pom.base_index and symbol == pom.base_symbol:
                walk_pom(self.commitment, self.params, pom, frontier)
        return frontier.known()

    def _expected_hash(self, u: int, x: int):
        s_par = self.sys_counts[u - 1]
        tup = self.tuples.get((u - 1, x % s_par))
        return None if tup is None else tup[x // s_par]

    def _path(self, u: int, x: int) -> Optional[MembershipPath]:
        levels = []
        cur = x
        for w in range(u - 1, -1, -1):
            s_par = self.sys_counts[w]
            par, pos = cur % s_par, cur // s_par
            tup = self.tuples.get((w, par))
            if tup is None:
                return None
            levels.append(tup[:pos] + tup[pos + 1 :])
            cur = par
        return MembershipPath(u, x, tuple(levels))

    def _members(self, u: int, eq: ParityEquation, rows, skip: int = -1):
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
            members.append(FraudMember(idx, rows[idx], path))
        return tuple(members)

    def run(self) -> ReconstructionResult:
        params = self.params
        for u in range(self.depth + 1):
            m = self.sizes[u]
            code = layer_code(params, m)
            if u == 0:
                rows = list(self.commitment.root)
            else:
                rows = [self.values.get((u, x)) for x in range(m)]

            outcome, known = self._peel_layer(u, code, rows)
            if outcome is not None:
                return outcome
            n_known = known.count(1)
            if n_known < m:
                frac = n_known / m
                if frac >= 1 - params.alpha:
                    raise BadCode(
                        f"layer {u} stalled with {frac:.4f} of symbols known",
                        layer=u,
                        layer_size=m,
                        known_fraction=frac,
                        unknown=frozenset(i for i, k in enumerate(known) if not k),
                        code_seed=code.seed,
                    )
                return self._insufficient(u, frac)

            self.layer_done[u] = rows
            if u >= 1:
                self._check_aggregation(u, rows)
        if self.unprovable:
            return self._insufficient(self.depth, 1.0)
        base = self.layer_done[self.depth]
        s_base = self.sys_counts[self.depth]
        # only the last systematic symbol carries padding; cut it before the
        # join, so each byte of the block is copied once
        tail = self.commitment.block_len - (s_base - 1) * self.params.symbol_size
        return Block(b"".join([*base[: s_base - 1], base[s_base - 1][:tail]]))

    def _peel_layer(self, u, code: CodeSpec, rows):
        """Hash-aware peeling of layer u in the engine's solve-in-turn order.

        ``rows`` holds each symbol's bytes or None and is filled in with
        every solve. Every fully known equation the order reaches is checked
        for zero XOR, and every solve whose digest some collected tuple pins
        is checked against it; a contradiction that cannot be proven from
        the collected material marks the reconstruction unprovable and, for
        a solve, leaves the symbol unknown. Returns (Fraud or None, the
        known flags)."""
        if u == self.depth:
            # wide symbols XOR fastest as uint8 rows
            load, dump, nonzero = _row_from_bytes, np.ndarray.tobytes, np.ndarray.any
        else:
            load, dump, nonzero = int_from_digest, digest_from_int, bool
        values = [None if r is None else load(r) for r in rows]
        tables = code.tables
        peel = Peel(tables, np.array([r is not None for r in rows]))
        for e, x in peel.steps():
            acc = xor_members(values, tables.members[e], x)
            if x < 0:
                if nonzero(acc):
                    fraud = self._equation_fraud(u, code, e, rows)
                    if fraud is not None:
                        return fraud, peel.known
                    self.unprovable = True
                continue
            value = dump(acc)
            expected = self._expected_hash(u, x) if u >= 1 else None
            if expected is not None and sha256(value) != expected:
                fraud = self._mismatch_fraud(u, code, e, x, expected, rows)
                if fraud is not None:
                    return fraud, peel.known
                self.unprovable = True
                continue
            values[x], rows[x] = acc, value
            peel.solve(x)
        return None, peel.known

    def _equation_fraud(self, u, code, e, rows):
        eq = code.parity_checks[e]
        members = self._members(u, eq, rows)
        if members is None:
            return None
        return Fraud(FraudProof(u, e, eq, members, None))

    def _mismatch_fraud(self, u, code, e, x, expected, rows):
        eq = code.parity_checks[e]
        path = self._path(u, x)
        members = self._members(u, eq, rows, skip=x)
        if path is None or members is None:
            return None
        return Fraud(FraudProof(u, e, eq, members, HashMismatch(x, expected, path)))

    def _check_aggregation(self, u, rows):
        """Recompute the aggregate of each parent of the completed layer u
        that has no collected tuple against the certified layer above; a
        mismatch marks the reconstruction unprovable. A parent with a tuple
        cannot mismatch: tuples come from proofs' climbs to the root, so a
        collected tuple's ancestors are collected too, and each child of a
        parent with a tuple was checked against it at ingest or at its
        solve."""
        s_par = self.sys_counts[u - 1]
        parent = self.layer_done[u - 1]
        for k in range(s_par):
            if (u - 1, k) in self.tuples:
                continue
            if sha256(b"".join(map(sha256, rows[k::s_par]))) != parent[k]:
                self.unprovable = True
                return

    def _insufficient(self, stalled: int, fraction: float) -> Insufficient:
        fractions = []
        for u in range(self.depth + 1):
            if u in self.layer_done:
                fractions.append((u, 1.0))
            elif u == stalled:
                fractions.append((u, fraction))
            else:
                have = sum(1 for (w, _i) in self.values if w == u)
                fractions.append((u, have / self.sizes[u]))
        return Insufficient(tuple(fractions))


def _row_from_bytes(value: bytes) -> np.ndarray:
    return np.frombuffer(value, dtype=np.uint8)


def reconstruct(
    commitment: Commitment, params: TreeParams, chunks: ChunkSet
) -> ReconstructionResult:
    if params != commitment.params:
        raise ParameterError("params do not match the commitment echo")
    return _Reconstructor(commitment, params, chunks).run()
