"""Reference membership-proof sampling and checks: one proof at a time,
nothing shared or memoized.

``sample_pom`` converts every row it reads on its own; ``walk_pom`` and
``verify_membership`` hash every q-tuple and every value they meet, each
with its own loop. The package's ``sample_pom``, ``sample_poms``,
``walk_pom``, ``walk_poms`` and ``verify_membership`` must agree with them:
the same proofs, and for any proof or claim the same verdict and, when a
proof passes, the same harvest; what a batch of passing proofs delivers
(``cit.Frontier.known``) is the first-wins merge of their harvests.
"""

from __future__ import annotations

from daoracle.cit import PomHarvest, ProofOfMembership, geometry
from daoracle.errors import IndexOutOfRange, ParameterError
from daoracle.util import HASH_BYTES, sha256


def sample_pom(tree: CodedTree, base_index: int) -> ProofOfMembership:
    geo = geometry(tree.params, tree.block_len)
    depth = geo.depth
    if not 0 <= base_index < geo.sizes[depth]:
        raise IndexOutOfRange(f"base index {base_index} not in [0, {geo.sizes[depth]})")

    pairs = []
    for u, (p_idx, e_idx) in zip(range(depth - 1, 0, -1), geo.pom_pairs(base_index)):
        symbols = tree.layers[u].symbols
        pairs.append((p_idx, e_idx, symbols[p_idx].tobytes(), symbols[e_idx].tobytes()))

    levels = []
    x = base_index
    for u in range(depth - 1, -1, -1):
        s_par = geo.sys_counts[u]
        par, pos = x % s_par, x // s_par
        child_hashes = tree.layers[u + 1].hashes[par::s_par]
        levels.append(
            tuple(child_hashes[p].tobytes() for p in range(len(child_hashes)) if p != pos)
        )
        x = par

    return ProofOfMembership(
        base_index=base_index,
        base_symbol=tree.layers[depth].symbols[base_index].tobytes(),
        block_len=tree.block_len,
        pairs=tuple(pairs),
        levels=tuple(levels),
    )


def walk_pom(commitment: Commitment, params: TreeParams, pom: ProofOfMembership):
    """Recompute the digest chain of a proof. Returns a PomHarvest when the
    proof is consistent with the commitment, else None."""
    if params != commitment.params or pom.block_len != commitment.block_len:
        return None
    try:
        geo = geometry(params, pom.block_len)
    except ParameterError:
        return None
    depth, sys_counts = geo.depth, geo.sys_counts
    q = params.batch
    i = pom.base_index
    if not 0 <= i < geo.sizes[depth]:
        return None
    if len(pom.base_symbol) != params.symbol_size:
        return None
    if len(pom.pairs) != depth - 1 or len(pom.levels) != depth:
        return None

    for (p_idx, e_idx, p_val, e_val), (wp, we) in zip(pom.pairs, geo.pom_pairs(i)):
        if (p_idx, e_idx) != (wp, we):
            return None
        if len(p_val) != HASH_BYTES or len(e_val) != HASH_BYTES:
            return None

    harvest = PomHarvest()
    harvest.values[(depth, i)] = pom.base_symbol
    h = sha256(pom.base_symbol)
    x = i
    for j, u in enumerate(range(depth - 1, -1, -1)):
        s_par = sys_counts[u]
        par, pos = x % s_par, x // s_par
        sibs = pom.levels[j]
        if len(sibs) != q - 1:
            return None
        for sib in sibs:
            if len(sib) != HASH_BYTES:
                return None
        tup = sibs[:pos] + (h,) + sibs[pos:]
        if j >= 1:
            # the previous layer's parity sample is a sibling here; its
            # digest must sit at its own child position
            _, e_idx, _, e_val = pom.pairs[j - 1]
            if e_idx % s_par != par:
                return None
            if tup[e_idx // s_par] != sha256(e_val):
                return None
        value = sha256(b"".join(tup))
        harvest.tuples[(u, par)] = tup
        if u >= 1:
            p_idx, e_idx, p_val, e_val = pom.pairs[j]
            if p_idx != par or value != p_val:
                return None
            harvest.values[(u, p_idx)] = p_val
            harvest.values[(u, e_idx)] = e_val
            h = sha256(value)
            x = par
        else:
            if value != commitment.root[par]:
                return None
    return harvest


def verify_membership(
    commitment: Commitment, params: TreeParams, leaf_hash: bytes, path: MembershipPath
) -> bool:
    """Check a bare digest claim: the commitment binds a symbol hashing to
    ``leaf_hash`` at (path.layer, path.index)."""
    if len(commitment.root) != params.root_size:
        return False
    try:
        geo = geometry(params, commitment.block_len)
    except ParameterError:
        return False
    u = path.layer
    if not 1 <= u <= geo.depth or not 0 <= path.index < geo.sizes[u]:
        return False
    if len(path.levels) != u:
        return False
    h = leaf_hash
    x = path.index
    for j, w in enumerate(range(u - 1, -1, -1)):
        s_par = geo.sys_counts[w]
        par, pos = x % s_par, x // s_par
        sibs = path.levels[j]
        if len(sibs) != params.batch - 1:
            return False
        for sib in sibs:
            if len(sib) != HASH_BYTES:
                return False
        value = sha256(b"".join(sibs[:pos] + (h,) + sibs[pos:]))
        if w >= 1:
            h = sha256(value)
            x = par
        else:
            return value == commitment.root[par]
    return False
