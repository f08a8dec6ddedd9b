"""Reference membership-proof sampling and checks: one proof at a time,
nothing shared or memoized.

``sample_pom`` reads every row it needs by index, on its own; ``walk_pom`` and
``verify_membership`` hash every symbol they meet, each with its own loop,
and ``walk_pom`` returns what a passing proof pins down as a
``PomHarvest``, a type the package does not have. The package's
``sample_pom`` and ``cit.Frontier`` (``walk`` and ``claim``) must agree
with them: the same proofs, and for any proof or claim the same verdict,
on a fresh frontier or on one shared with other claims; what one passing
proof walked on a fresh frontier delivers (``conftest.ingested``) is its
harvest, and what a batch of passing proofs walked on one frontier
delivers is the first-wins merge of their harvests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from daoracle.cit import ProofOfMembership, geometry
from daoracle.errors import ParameterError
from daoracle.util import HASH_BYTES, sha256
from fraction_geometry import pom_pairs


def sample_pom(tree: CodedTree, base_index: int) -> ProofOfMembership:
    geo = geometry(tree.commitment.params, tree.commitment.block_len)
    depth = geo.depth
    if not 0 <= base_index < geo.sizes[depth]:
        raise ParameterError(f"base index {base_index} not in [0, {geo.sizes[depth]})")
    ancestors = [
        tree.layers[u].symbols[base_index % geo.sys_counts[u]]
        for u in range(depth - 1, -1, -1)
    ]
    pairs = pom_pairs(tree.commitment.params, geo.sizes, base_index)
    parities = [
        tree.layers[u].symbols[e_idx]
        for u, (_p_idx, e_idx) in zip(range(depth - 1, 0, -1), pairs)
    ]
    return ProofOfMembership(
        base_index=base_index,
        base_symbol=tree.layers[depth].symbols[base_index].tobytes(),
        block_len=tree.commitment.block_len,
        ancestors=tuple(ancestors),
        parities=tuple(parities),
    )


@dataclass
class PomHarvest:
    """Everything a verified proof pins down: symbol values keyed by
    (layer, index)."""

    values: dict[tuple[int, int], bytes] = field(default_factory=dict)


def _slot(symbol: bytes, pos: int) -> bytes:
    """The digest at child position ``pos`` of a parent symbol."""
    return symbol[pos * HASH_BYTES : (pos + 1) * HASH_BYTES]


def _climbs(commitment, params, geo, u: int, x: int, leaf_hash: bytes, ancestors) -> bool:
    """The digest ``leaf_hash`` of symbol x of layer u climbs through
    ``ancestors`` (layers u-1 up to 0) to the commitment."""
    if len(ancestors) != u:
        return False
    h = leaf_hash
    for ancestor, w in zip(ancestors, range(u - 1, -1, -1)):
        s_par = geo.sys_counts[w]
        if len(ancestor) != params.batch * HASH_BYTES:
            return False
        if _slot(ancestor, x // s_par) != h:
            return False
        h = sha256(ancestor)
        x %= s_par
    return h == commitment.root[x]


def walk_pom(commitment: Commitment, params: TreeParams, pom: ProofOfMembership):
    """Recompute the digest chain of a proof. Returns a PomHarvest when the
    proof is consistent with the commitment, else None."""
    if params != commitment.params or pom.block_len != commitment.block_len:
        return None
    geo = geometry(params, pom.block_len)
    depth, sizes, sys_counts = geo.depth, geo.sizes, geo.sys_counts
    i = pom.base_index
    if not 0 <= i < sizes[depth]:
        return None
    if len(pom.base_symbol) != params.symbol_size or len(pom.parities) != depth - 1:
        return None
    if not _climbs(commitment, params, geo, depth, i, sha256(pom.base_symbol), pom.ancestors):
        return None

    harvest = PomHarvest()
    harvest.values[(depth, i)] = pom.base_symbol
    for ancestor, u in zip(pom.ancestors, range(depth - 1, -1, -1)):
        harvest.values[(u, i % sys_counts[u])] = ancestor
    pairs = pom_pairs(params, sizes, i)
    for j, (u, (_p_idx, e_idx)) in enumerate(zip(range(depth - 1, 0, -1), pairs)):
        # the parity symbol's parent is the proof's ancestor one layer up
        parity = pom.parities[j]
        if len(parity) != params.batch * HASH_BYTES:
            return None
        s_up = sys_counts[u - 1]
        if e_idx % s_up != i % s_up:
            return None
        if _slot(pom.ancestors[j + 1], e_idx // s_up) != sha256(parity):
            return None
        harvest.values[(u, e_idx)] = parity
    return harvest


def verify_membership(
    commitment: Commitment, params: TreeParams, u: int, x: int, leaf_hash: bytes, ancestors
) -> bool:
    """Check a bare digest claim: the commitment binds a symbol hashing to
    ``leaf_hash`` at (u, x) through ``ancestors``."""
    geo = geometry(params, commitment.block_len)
    if not 0 <= u <= geo.depth or not 0 <= x < geo.sizes[u]:
        return False
    return _climbs(commitment, params, geo, u, x, leaf_hash, ancestors)
