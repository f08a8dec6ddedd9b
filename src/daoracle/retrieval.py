"""Cross-layer reconstruction from dispersed chunks, and fraud proofs.

Reconstruction seeds every layer's known symbols from the collected
membership proofs, then decodes top-down, the root layer included: each
layer is peeled with its own code by the package's one peeling engine
(``_kernels.Peel``), in its solve-in-turn order, so a fraud proof names
the first failing equation of an ascending scan. A decoded layer holds
every child digest of the layer below, so every solved symbol is checked
against its slot in its decoded parent, or at the root layer against the
commitment, and every fully known equation is checked for zero XOR; a
contradiction there yields a compact incorrect-coding proof a third party
can verify against the commitment alone, each member bound by the
ancestors the decoded layers above hold. The peel and the fraud-proof
check pick the form they XOR a layer's symbols in by its symbol width
(``_kernels.value_form``): Python ints up to ``INT_VALUE_MAX_BYTES``
(2 KiB), as a round's 256-byte digest-layer and 1 KiB base symbols are,
and uint8 rows above it, as ``bulk_block``'s 64 KiB base rows are.
``cit.build_tree``'s encode still picks by layer: digest layers as ints,
the base layer as uint8 rows.

Each symbol is certified once: ingest walks the collected proofs against
one ``cit.Frontier``, which checks each delivered symbol against the
committed digest at its slot of its parent, and a solve is checked at its
solve. The frontier holds what passed in one list per layer, indexed by
position, so each layer is peeled from a copy of its list
(``Frontier.rows``), and a stall counts the other layers' symbols from
the same lists. Ingest hashes the delivered base symbols in one batch
before the walks (``_kernels.map_rows``), and each walk climbs from its
symbol's digest: symbols of at least ``PARALLEL_MIN_BYTES`` (16 KiB), as
``bulk_block``'s 64 KiB ones are, are hashed on two threads, and a
round's 1 KiB ones on one.

A stall at >= (1 - alpha) known symbols indicts the code, not the data,
and raises BadCode; a stall below that returns Insufficient. The test is
exact on the decimal alpha was written as (``util.as_written``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import cit
from .cit import (
    Commitment,
    Frontier,
    ProofOfMembership,
    TreeParams,
    echoes_params,
    layer_code,
    unit_agrees,
    verify_membership,
    walk_pom,
)
from ._kernels import INT_VALUE_MAX_BYTES, Peel, map_rows, value_form, xor_members
from .codec import CodeSpec, ParityEquation
from .errors import BadCode, ParameterError
from .util import HASH_BYTES, as_written, sha256


@dataclass(frozen=True)
class ChunkSet:
    commitment: Commitment
    units: tuple[tuple[int, bytes | memoryview, ProofOfMembership], ...]


@dataclass(frozen=True)
class FraudMember:
    index: int
    # a base-layer value may be a read-only view: of a decoded bundle, or
    # of the XOR that solved a symbol wider than INT_VALUE_MAX_BYTES
    value: bytes | memoryview
    ancestors: tuple[bytes, ...]  # one per layer above the proof's, root last


@dataclass(frozen=True)
class HashMismatch:
    """The committed digest the equation contradicts: if the data satisfied
    the equation, the symbol at `index` would XOR out to a value whose
    digest differs from `expected_hash`."""

    index: int
    expected_hash: bytes
    ancestors: tuple[bytes, ...]


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


def verify_fraud_proof(commitment: Commitment, params: TreeParams, proof: FraudProof) -> bool:
    """Stateless check of an incorrect-coding proof against the commitment
    alone. The proof carries the field types ``FraudProof`` declares, as
    ``serialize.decode_fraud_proof`` builds them; every value in it is
    checked, so a malformed proof is False, and so are ``params`` other
    than the commitment's. Each member and the mismatch are claims on one
    frontier, so an ancestor they share is hashed once."""
    if not echoes_params(commitment, params):
        return False
    frontier = Frontier(commitment)
    geo, u = frontier.geo, proof.layer
    if not 0 <= u <= geo.depth:
        return False
    try:
        code = layer_code(params, geo.sizes[u])
    except BadCode:
        return False
    if not 0 <= proof.equation_no < len(code.parity_checks):
        return False
    if code.parity_checks[proof.equation_no] != proof.equation:
        return False
    width = _symbol_width(params, u, geo.depth)
    load, dump, nonzero = value_form(width)

    eq_idx = set(proof.equation)
    # each checked member's value, in the form the peel XORs it in, by
    # index: the XOR below runs over the indices this holds
    values = {}
    for member in proof.members:
        if member.index in values or member.index not in eq_idx or len(member.value) != width:
            return False
        if not verify_membership(frontier, u, member.index, sha256(member.value), member.ancestors):
            return False
        values[member.index] = load(member.value)

    if proof.mismatch is None:
        if set(values) != eq_idx:
            return False
        return bool(nonzero(xor_members(values, values)))

    mm = proof.mismatch
    if mm.index not in eq_idx or set(values) != eq_idx - {mm.index}:
        return False
    if not verify_membership(frontier, u, mm.index, mm.expected_hash, mm.ancestors):
        return False
    return sha256(dump(xor_members(values, values))) != mm.expected_hash


def _symbol_width(params: TreeParams, u: int, depth: int) -> int:
    """The byte width of layer u's symbols: a base symbol, or q digests."""
    return params.symbol_size if u == depth else params.batch * HASH_BYTES


def fraud_proof_size(proof: FraudProof) -> int:
    """Byte size of the canonical encoding."""
    from .serialize import encode_fraud_proof

    return len(encode_fraud_proof(proof))


class _Reconstructor:
    def __init__(self, commitment: Commitment, chunks: ChunkSet):
        self.commitment = commitment
        # the walks share one frontier, as a node's dispersal check does,
        # and its per-layer lists hold the symbols each layer is peeled
        # from, each certified at ingest; each walk goes through this
        # module's walk_pom name, which per-proof timers wrap
        self.frontier = frontier = Frontier(commitment)
        geo = frontier.geo
        self.sizes, self.sys_counts, self.depth = geo.sizes, geo.sys_counts, geo.depth
        # the base symbols of the committed width are hashed in one batch,
        # by cit's sha256 name looked up at call time, as a walk's own hash
        # is, so call counters see the calls they saw; each walk climbs
        # from its symbol's digest
        width = commitment.params.symbol_size
        poms = [
            pom
            for index, symbol, pom in chunks.units
            if unit_agrees(index, symbol, pom) and len(symbol) == width
        ]
        digests = map_rows(cit.sha256, [pom.base_symbol for pom in poms])
        for pom, digest in zip(poms, digests):
            walk_pom(frontier, pom, digest)
        self.layer_done: dict[int, list[bytes]] = {}

    def _expected_hash(self, u: int, x: int) -> bytes:
        """The committed digest of symbol x of layer u: the commitment's
        entry at the root layer, else its slot in its decoded parent."""
        if u == 0:
            return self.commitment.root[x]
        s_par = self.sys_counts[u - 1]
        at = x // s_par * HASH_BYTES
        return self.layer_done[u - 1][x % s_par][at : at + HASH_BYTES]

    def _ancestors(self, u: int, x: int) -> tuple[bytes, ...]:
        """Symbol x of layer u's ancestors, read from the decoded layers."""
        done, sys_counts = self.layer_done, self.sys_counts
        return tuple(done[w][x % sys_counts[w]] for w in range(u - 1, -1, -1))

    def _fraud(self, u, code: CodeSpec, e: int, rows, mismatch_at: int = -1) -> Fraud:
        """The proof that equation e of layer u fails: its known members,
        and for a solve at ``mismatch_at`` the committed digest it misses."""
        eq = code.parity_checks[e]
        members = tuple(
            FraudMember(idx, rows[idx], self._ancestors(u, idx))
            for idx in eq
            if idx != mismatch_at
        )
        mismatch = None
        if mismatch_at >= 0:
            expected = self._expected_hash(u, mismatch_at)
            mismatch = HashMismatch(mismatch_at, expected, self._ancestors(u, mismatch_at))
        return Fraud(FraudProof(u, e, eq, members, mismatch))

    def run(self) -> ReconstructionResult:
        params = self.commitment.params
        for u in range(self.depth + 1):
            m = self.sizes[u]
            code = layer_code(params, m)
            rows = self.frontier.rows(u)
            outcome, known = self._peel_layer(u, code, rows)
            if outcome is not None:
                return outcome
            n_known = known.count(1)
            if n_known < m:
                frac = n_known / m
                # exact on alpha as written: at alpha 0.7, 6 of 20 known is
                # 1 - alpha, though 6 / 20 < 1 - 0.7 in floats
                if Fraction(n_known, m) >= 1 - as_written(params.alpha):
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
        base = self.layer_done[self.depth]
        s_base = self.sys_counts[self.depth]
        # only the last systematic symbol carries padding; cut it before the
        # join, so each byte of the block is copied once
        tail = self.commitment.block_len - (s_base - 1) * params.symbol_size
        return Block(b"".join([*base[: s_base - 1], base[s_base - 1][:tail]]))

    def _peel_layer(self, u, code: CodeSpec, rows):
        """Hash-aware peeling of layer u in the engine's solve-in-turn order.

        ``rows`` holds each symbol's bytes or None and is filled in with
        every solve. Every fully known equation the order reaches is checked
        for zero XOR, and every solve against its committed digest. Returns
        (the Fraud of the first contradiction or None, the known flags).

        The symbol width picks the value form (``_kernels.value_form``):
        Python ints up to ``INT_VALUE_MAX_BYTES``, whose solves are kept as
        bytes, and uint8 rows above it, whose solves are kept as read-only
        views of their XOR results, so the block's join is their only copy.
        A known symbol's value is loaded the first time the order reaches
        an equation that holds it, so a contradiction found early loads
        only the members of the equations up to it.

        As ints, each equation is XORed in one pass over its members that
        also loads them: ``values`` holds None for a known symbol not yet
        loaded and 0 for an unknown one, so the unknown member x XORs in as
        nothing. As rows, the members are loaded first and ``xor_members``
        XORs all but x."""
        width = _symbol_width(self.commitment.params, u, self.depth)
        load, dump, nonzero = value_form(width)
        as_ints = width <= INT_VALUE_MAX_BYTES
        unknown = [x for x, r in enumerate(rows) if r is None]
        values = [None] * len(rows)
        if as_ints:
            for x in unknown:
                values[x] = 0
        equations = code.parity_checks
        peel = Peel(code, unknown)
        for e, x in peel.steps():
            members = equations[e]
            if as_ints:
                acc = 0
                for i in members:
                    v = values[i]
                    if v is None:
                        v = values[i] = load(rows[i])
                    acc ^= v
            else:
                for i in members:
                    if values[i] is None and i != x:
                        values[i] = load(rows[i])
                acc = xor_members(values, members, x)
            if x < 0:
                if nonzero(acc):
                    return self._fraud(u, code, e, rows), peel.known
                continue
            value = dump(acc)
            if sha256(value) != self._expected_hash(u, x):
                return self._fraud(u, code, e, rows, mismatch_at=x), peel.known
            values[x], rows[x] = acc, value
            peel.solve(x)
        return None, peel.known

    def _insufficient(self, stalled: int, fraction: float) -> Insufficient:
        fractions = []
        for u in range(self.depth + 1):
            if u in self.layer_done:
                fractions.append((u, 1.0))
            elif u == stalled:
                fractions.append((u, fraction))
            else:
                held = self.frontier.held[u]
                fractions.append((u, (len(held) - held.count(None)) / len(held)))
        return Insufficient(tuple(fractions))


def reconstruct(
    commitment: Commitment, params: TreeParams, chunks: ChunkSet
) -> ReconstructionResult:
    if not echoes_params(commitment, params):
        raise ParameterError("params do not match the commitment echo")
    # the callers pass the chunk set's own commitment object, so the
    # identity test decides the common case
    if chunks.commitment is not commitment and chunks.commitment != commitment:
        raise ParameterError("the chunks are labelled with another commitment")
    return _Reconstructor(commitment, chunks).run()
