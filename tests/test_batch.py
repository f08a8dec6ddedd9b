"""Batched proof sampling and verification against the one-proof-at-a-time
reference in ``tests/reference_proofs.py``: the same proofs, the same
per-proof verdicts, the same harvest from a single walk, and for a
reconstruction's ingest the same first-wins merge of what passes. The
proof sets mix honest proofs with single-field mutations, with forged
q-tuples shared by several proofs, with forgeries that share positions,
pairs keys or objects with honest proofs, over blocks whose tuples are all
equal, and with forgeries placed before and after the honest proofs whose
tuples they imitate, so nothing a walk leaves in the frontier has a
chance to decide a later proof wrongly. Bare digest claims get the
reference ``verify_membership``'s verdict."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_proofs as ref
from daoracle import cit, oracle as orc
from daoracle import retrieval as rt
from daoracle import serialize as sz
from daoracle.dispersal import assign_chunks
from daoracle.errors import BadCode, IndexOutOfRange
from daoracle.util import sha256

from conftest import chunkset_for
from test_geometry import TREES, _flip, _replace_at, mutated_proofs


def merged(harvests) -> cit.PomHarvest:
    """First-wins merge, in order, of the harvests of the passing proofs."""
    out = cit.PomHarvest()
    for harvest in harvests:
        if harvest is None:
            continue
        for key, val in harvest.values.items():
            out.values.setdefault(key, val)
        for key, tup in harvest.tuples.items():
            out.tuples.setdefault(key, tup)
    return out


def check_batch(tree, poms) -> list:
    """Batched verdicts and one-proof harvests equal the reference walk's,
    proof by proof, and what one frontier and the reconstructor's ingest keep is the
    merge of the passing harvests, its values and tuples; each value hashes to
    the digest at its position in the tuple one up. Returns the reference
    harvests (None for a failing proof)."""
    c, p = tree.commitment, tree.params
    want = [ref.walk_pom(c, p, pom) for pom in poms]
    verdicts = [harvest is not None for harvest in want]
    assert cit.walk_poms(c, p, poms) == verdicts
    assert [cit.walk_pom(c, p, pom) for pom in poms] == want
    frontier = cit.Frontier(c, p)
    assert [cit.walk_pom(c, p, pom, frontier) for pom in poms] == verdicts
    expect = merged(want)
    values, tuples = frontier.known()
    assert (values, tuples) == (expect.values, expect.tuples)
    sys_counts = cit.geometry(p, tree.block_len).sys_counts
    for (u, x), value in values.items():
        s_par = sys_counts[u - 1]
        assert sha256(value) == tuples[(u - 1, x % s_par)][x // s_par]
    units = tuple((pom.base_index, pom.base_symbol, pom) for pom in poms)
    reader = rt._Reconstructor(c, p, rt.ChunkSet(c, units))
    assert (reader.values, reader.tuples) == (values, tuples)
    return want


def path_children(tree, i) -> list[int]:
    """The child index the proof of base index ``i`` enters each
    aggregation through: entry j is at layer depth - j, under parent layer
    depth - 1 - j."""
    geo = cit.geometry(tree.params, tree.block_len)
    out, x = [], i
    for u in range(geo.depth - 1, -1, -1):
        out.append(x)
        x %= geo.sys_counts[u]
    return out


@st.composite
def mixed_sets(draw):
    tree = draw(st.sampled_from(TREES))
    m = tree.sizes[-1]
    poms = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            poms.append(cit.sample_pom(tree, draw(st.integers(0, m - 1))))
        else:
            poms.append(draw(mutated_proofs(trees=(tree,)))[2])
    return tree, poms


@settings(max_examples=200, deadline=None)
@given(mixed_sets())
def test_batched_walk_matches_the_reference_on_mixed_sets(case):
    tree, poms = case
    check_batch(tree, poms)


@st.composite
def shared_forgeries(draw):
    """(tree, proofs, which are forged): several proofs carry one forged
    digest for the same child k of the same parent (u, par), so all of them
    rebuild one forged q-tuple; honest proofs through the same parent are
    mixed in, in any order."""
    tree = draw(st.sampled_from(TREES))
    geo = cit.geometry(tree.params, tree.block_len)
    j = draw(st.integers(0, geo.depth - 1))
    s_par = geo.sys_counts[geo.depth - 1 - j]
    par = draw(st.integers(0, s_par - 1))
    k = draw(st.integers(0, tree.params.batch - 1))
    through = [
        i for i in range(tree.sizes[-1])
        if path_children(tree, i)[j] % s_par == par and path_children(tree, i)[j] // s_par != k
    ]
    picks = draw(st.lists(st.sampled_from(through), min_size=2, max_size=6))
    honest = [cit.sample_pom(tree, i) for i in picks]
    # the true digest of child k, read from any honest proof's siblings
    pos0 = path_children(tree, picks[0])[j] // s_par
    true_k = honest[0].levels[j][k if k < pos0 else k - 1]
    forged_k = _flip(true_k, draw(st.integers(0, 31)))
    forged = []
    for i, pom in zip(picks, honest):
        pos = path_children(tree, i)[j] // s_par
        slot = k if k < pos else k - 1
        sibs = _replace_at(pom.levels[j], slot, forged_k)
        forged.append(dataclasses.replace(pom, levels=_replace_at(pom.levels, j, sibs)))
    extra = draw(st.lists(st.sampled_from(honest), max_size=4))
    order = draw(st.permutations(range(len(forged) + len(extra))))
    proofs = [(forged + extra)[n] for n in order]
    is_forged = [n < len(forged) for n in order]
    return tree, proofs, is_forged


@settings(max_examples=150, deadline=None)
@given(shared_forgeries())
def test_a_forged_tuple_shared_by_several_proofs_fails_each_of_them(case):
    tree, proofs, is_forged = case
    got = check_batch(tree, proofs)
    assert [harvest is None for harvest in got] == is_forged


@pytest.mark.parametrize("tree", TREES, ids=("small", "deep"))
def test_forgeries_first_do_not_decide_the_honest_proofs_after_them(tree):
    honest = cit.sample_poms(tree, range(tree.sizes[-1]))
    forged = []
    for n, pom in enumerate(honest):
        j = n % len(pom.levels)
        sibs = _replace_at(pom.levels[j], 0, _flip(pom.levels[j][0], n))
        forged.append(dataclasses.replace(pom, levels=_replace_at(pom.levels, j, sibs)))
    # a wrong pair value, and a sibling one byte too long, ahead of the rest
    p_idx, e_idx, p_val, e_val = honest[0].pairs[0]
    forged.append(dataclasses.replace(
        honest[0], pairs=_replace_at(honest[0].pairs, 0, (p_idx, e_idx, p_val, _flip(e_val, 3)))
    ))
    long_sibs = _replace_at(honest[1].levels[0], 0, honest[1].levels[0][0] + b"\0")
    forged.append(
        dataclasses.replace(honest[1], levels=_replace_at(honest[1].levels, 0, long_sibs))
    )
    got = check_batch(tree, forged + honest)
    assert all(harvest is None for harvest in got[: len(forged)])
    assert all(harvest is not None for harvest in got[len(forged):])


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixed_sets(), shared_forgeries().map(lambda case: case[:2])))
def test_ingest_keeps_the_collected_tuples_upward_closed(case):
    """With the tuple of parent (w, p), ingest also holds the tuple of its
    parent (w - 1, p mod s): the reconstructor reads committed digests only
    from these tuples and never rebuilds one."""
    tree, poms = case
    units = tuple((pom.base_index, pom.base_symbol, pom) for pom in poms)
    reader = rt._Reconstructor(tree.commitment, tree.params, rt.ChunkSet(tree.commitment, units))
    sys_counts = cit.geometry(tree.params, tree.block_len).sys_counts
    for w, p in reader.tuples:
        assert w == 0 or (w - 1, p % sys_counts[w - 1]) in reader.tuples


@st.composite
def pair_forgeries(draw):
    """(tree, forged proof, honest proof): the forged proof's chain is the
    honest one, but one pair names another parity symbol under the same
    parent and carries that symbol's true value, so only the index formula
    tells it apart; or it keeps the honest indices with a forged e_val."""
    tree = draw(st.sampled_from(TREES))
    geo = cit.geometry(tree.params, tree.block_len)
    honest = cit.sample_pom(tree, draw(st.integers(0, tree.sizes[-1] - 1)))
    j = draw(st.integers(0, len(honest.pairs) - 1))
    u = geo.depth - 1 - j
    p_idx, e_idx, p_val, e_val = honest.pairs[j]
    if draw(st.booleans()):
        s_up = geo.sys_counts[u - 1]
        others = [x for x in range(e_idx % s_up, geo.sizes[u], s_up) if x not in (p_idx, e_idx)]
        x = draw(st.sampled_from(others))
        pair = (p_idx, x, p_val, tree.layers[u].symbols[x].tobytes())
    else:
        pair = (p_idx, e_idx, p_val, _flip(e_val, draw(st.integers(0, 31))))
    forged = dataclasses.replace(honest, pairs=_replace_at(honest.pairs, j, pair))
    return tree, forged, honest


@settings(max_examples=100, deadline=None)
@given(pair_forgeries())
def test_an_honest_chain_with_a_forged_pair_is_rejected(case):
    tree, forged, honest = case
    got = check_batch(tree, [forged, honest])
    assert got[0] is None and got[1] is not None


# The frontier: a walk stops climbing at the first position an earlier
# passing proof authenticated, and stops checking pairs at the first pairs
# key one did. Each case puts forgeries next to honest proofs whose
# positions they share.

# zero blocks: every tuple of a layer is equal, whatever its position
ZERO_TREES = tuple(cit.build_tree(bytes(tree.block_len), tree.params) for tree in TREES)


@st.composite
def frontier_sets(draw):
    """(tree, proofs, which must fail): honest proofs, each sampled through
    one shared memo or decoded from a chunk bundle (so it shares no
    objects), and forgeries, in any order. A forgery climbs through the
    parent of an honest proof's first tuple and flips one sibling digest
    above it; or shares one of an honest proof's pairs keys (u, i mod
    (m_u - s_u)) and forges one pair, below, at or above that layer; or is
    any single-field mutation."""
    tree = draw(st.sampled_from(TREES + ZERO_TREES))
    geo = cit.geometry(tree.params, tree.block_len)
    depth, sizes, sys_counts = geo.depth, geo.sizes, geo.sys_counts
    m = sizes[depth]
    memo: dict = {}
    picks = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    honest = [cit.sample_pom(tree, i, memo) for i in picks]
    units = tuple((pom.base_index, pom.base_symbol, pom) for pom in honest)
    decoded = [pom for _, _, pom in sz.decode_chunk_bundle(sz.encode_chunk_bundle(units))]
    honest = [draw(st.sampled_from((pom, copy))) for pom, copy in zip(honest, decoded)]
    forged, must_fail = [], []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.sampled_from(picks))
        kind = draw(st.sampled_from(("upper_sibling", "pair", "mutation")))
        if kind == "upper_sibling":
            s_par = sys_counts[depth - 1]
            pom = cit.sample_pom(tree, draw(st.sampled_from(range(i % s_par, m, s_par))), memo)
            j = draw(st.integers(1, depth - 1))
            k = draw(st.integers(0, tree.params.batch - 2))
            sibs = _replace_at(pom.levels[j], k, _flip(pom.levels[j][k], draw(st.integers(0, 31))))
            forged.append(dataclasses.replace(pom, levels=_replace_at(pom.levels, j, sibs)))
        elif kind == "pair":
            u_key = draw(st.integers(1, depth - 1))
            mod = sizes[u_key] - sys_counts[u_key]
            pom = cit.sample_pom(tree, draw(st.sampled_from(range(i % mod, m, mod))), memo)
            j = draw(st.integers(0, depth - 2))
            u = depth - 1 - j
            p_idx, e_idx, p_val, e_val = pom.pairs[j]
            how = draw(st.sampled_from(("e_val", "p_val", "e_idx")))
            if how == "e_val":
                pair = (p_idx, e_idx, p_val, _flip(e_val, draw(st.integers(0, 31))))
            elif how == "p_val":
                pair = (p_idx, e_idx, _flip(p_val, draw(st.integers(0, 31))), e_val)
            else:
                # another symbol under the same parent, with its true value
                s_up = sys_counts[u - 1]
                x = draw(st.sampled_from(
                    [x for x in range(e_idx % s_up, sizes[u], s_up) if x != e_idx]
                ))
                pair = (p_idx, x, p_val, tree.layers[u].symbols[x].tobytes())
            forged.append(dataclasses.replace(pom, pairs=_replace_at(pom.pairs, j, pair)))
        else:
            # some mutations of a zero-block proof are another honest proof
            forged.append(draw(mutated_proofs(trees=(tree,)))[2])
        must_fail.append(kind != "mutation")
    order = draw(st.permutations(range(len(honest) + len(forged))))
    proofs = [(honest + forged)[n] for n in order]
    fails = [n >= len(honest) and must_fail[n - len(honest)] for n in order]
    return tree, proofs, fails


@settings(max_examples=300, deadline=None)
@given(frontier_sets())
def test_the_frontier_walk_matches_the_reference(case):
    tree, proofs, fails = case
    got = check_batch(tree, proofs)
    assert all(harvest is None for harvest, fail in zip(got, fails) if fail)


def test_a_zero_block_ingests_every_position_it_was_given():
    """Equal tuples at different parents: a frontier keyed by tuple content
    would let one proof stand for another position's."""
    tree = ZERO_TREES[0]
    m = tree.sizes[-1]
    got = check_batch(tree, cit.sample_poms(tree, range(0, m, 2)))
    assert all(harvest is not None for harvest in got)
    out = rt.reconstruct(tree.commitment, tree.params, chunkset_for(tree, range(m - 4)))
    assert out == rt.Block(bytes(tree.block_len))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TREES), st.data())
def test_batched_sampling_matches_the_reference(tree, data):
    m = tree.sizes[-1]
    indices = data.draw(st.lists(st.integers(0, m - 1), max_size=24))
    indices += data.draw(st.lists(st.sampled_from(indices), max_size=4)) if indices else []
    want = [ref.sample_pom(tree, i) for i in indices]
    assert cit.sample_poms(tree, indices) == want
    assert [cit.sample_pom(tree, i) for i in indices] == want


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(TREES), st.data())
def test_batched_sampling_rejects_an_out_of_range_index(tree, data):
    m = tree.sizes[-1]
    indices = data.draw(st.lists(st.integers(0, m - 1), max_size=8))
    bad = data.draw(st.one_of(st.integers(-3, -1), st.integers(m, m + 3)))
    indices.insert(data.draw(st.integers(0, len(indices))), bad)
    with pytest.raises(IndexOutOfRange):
        cit.sample_poms(tree, indices)


def test_duplicate_indices_sample_equal_proofs():
    tree = TREES[0]
    poms = cit.sample_poms(tree, [3, 3, 0, 3])
    assert poms[0] == poms[1] == poms[3] == ref.sample_pom(tree, 3)
    assert poms[2] == ref.sample_pom(tree, 0)


def test_dispersal_units_are_the_reference_proofs_and_symbols():
    tree = TREES[0]
    design = assign_chunks(32, 4, 0.5, seed=3)
    base = tree.layers[-1].symbols
    for node, msg in orc.messages_for_tree(tree, design).items():
        want = tuple(
            (i, base[i].tobytes(), ref.sample_pom(tree, i))
            for i in sorted(set(int(i) for i in design.assignments[node]))
        )
        assert msg.units == want


def test_audit_fails_a_voter_holding_one_forged_proof():
    tree = TREES[0]
    design = assign_chunks(32, 4, 1.0, seed=21)
    messages = orc.messages_for_tree(tree, design)
    nodes = [orc.OracleNode(i) for i in range(4)]
    chain = orc.TrustedChain(4, 0.25, 0.5)
    votes = [orc.node_on_dispersal(n, messages[n.node_id]) for n in nodes]
    orc.chain_submit_votes(chain, tree.commitment, votes)
    # node 0 keeps its units, but the proof of its last one now carries a
    # forged sibling digest
    key = orc.commit_key(tree.commitment)
    idx = max(i for k, i in nodes[0].stored if k == key)
    symbol, pom = nodes[0].stored[(key, idx)]
    sibs = _replace_at(pom.levels[1], 0, _flip(pom.levels[1][0], 0))
    forged = dataclasses.replace(pom, levels=_replace_at(pom.levels, 1, sibs))
    nodes[0].stored[(key, idx)] = (symbol, forged)
    rng = np.random.default_rng(7)
    outcomes = [orc.audit(chain, nodes, tree.commitment, 1.0, rng, design) for _ in range(20)]
    assert {o.passed for o in outcomes if o.audited == 0} == {False}
    assert {o.passed for o in outcomes if o.audited != 0} == {True}


# explicit checks: malformed input is False, a fault inside is an exception


def test_a_commitment_with_the_wrong_root_count_verifies_nothing():
    tree = TREES[0]
    pom = cit.sample_pom(tree, 5)
    short = dataclasses.replace(tree.commitment, root=tree.commitment.root[:-1])
    assert not cit.verify_symbol(short, tree.params, pom)
    assert cit.walk_poms(short, tree.params, [pom, pom]) == [False, False]


@lru_cache(maxsize=None)
def _fraud_case():
    params = TREES[0].params
    block = bytes((i * 37 + 11) % 256 for i in range(512))
    corrupted = orc.build_tree_with_base_corruption(block, params, xor_mask=0x5A)
    out = rt.reconstruct(corrupted.commitment, params, chunkset_for(corrupted, range(32)))
    assert isinstance(out, rt.Fraud)
    return corrupted.commitment, params, out.proof


@pytest.fixture(scope="module")
def fraud_case():
    return _fraud_case()


def test_malformed_fraud_proof_inputs_are_false(fraud_case, monkeypatch):
    commitment, params, proof = fraud_case
    assert rt.verify_fraud_proof(commitment, params, proof)
    short = dataclasses.replace(commitment, root=commitment.root[:-1])
    assert not rt.verify_fraud_proof(short, params, proof)
    assert not rt.verify_fraud_proof(
        dataclasses.replace(commitment, block_len=commitment.block_len + 1), params, proof
    )

    def no_code(params, size):
        raise BadCode("gate failed", layer_size=size)

    monkeypatch.setattr(rt, "layer_code", no_code)
    assert not rt.verify_fraud_proof(commitment, params, proof)


def spy(*_args, **_kwargs):
    raise RuntimeError("spy")


def test_a_fault_inside_the_membership_verifier_propagates(monkeypatch):
    tree = TREES[0]
    pom = cit.sample_pom(tree, 5)
    monkeypatch.setattr(cit, "sha256", spy)
    for call in (
        lambda: cit.verify_symbol(tree.commitment, tree.params, pom),
        lambda: cit.walk_pom(tree.commitment, tree.params, pom),
        lambda: cit.walk_poms(tree.commitment, tree.params, [pom]),
    ):
        with pytest.raises(RuntimeError, match="spy"):
            call()


def test_a_fault_inside_the_fraud_verifier_propagates(fraud_case, monkeypatch):
    commitment, params, proof = fraud_case
    monkeypatch.setattr(rt, "layer_code", spy)
    with pytest.raises(RuntimeError, match="spy"):
        rt.verify_fraud_proof(commitment, params, proof)
    monkeypatch.undo()
    assert proof.layer > 0  # its members carry membership paths
    monkeypatch.setattr(rt, "verify_membership", spy)
    with pytest.raises(RuntimeError, match="spy"):
        rt.verify_fraud_proof(commitment, params, proof)


# verify_membership against the reference


def honest_path(tree, u: int, x: int) -> cit.MembershipPath:
    """The membership path of symbol x of layer u, read off the tree's
    digest rows: at each level up, the digests of the other children of
    the parent the chain passes."""
    geo = cit.geometry(tree.params, tree.block_len)
    levels, cur = [], x
    for w in range(u - 1, -1, -1):
        s_par = geo.sys_counts[w]
        hashes = tree.layers[w + 1].hashes
        children = range(cur % s_par, geo.sizes[w + 1], s_par)
        levels.append(tuple(hashes[k].tobytes() for k in children if k != cur))
        cur %= s_par
    return cit.MembershipPath(u, x, tuple(levels))


MEMBERSHIP_MUTATIONS = (
    "honest", "layer", "index", "level_count", "sibling_count", "sibling_width",
    "sibling_digest", "leaf_hash", "params", "root",
)


@st.composite
def membership_claims(draw):
    """(kind, commitment, params, leaf hash, path): an honest claim, taken
    from a fraud proof or read off a tree, or one differing
    from it in the single field ``kind`` names."""
    if draw(st.booleans()):
        commitment, params, proof = _fraud_case()
        claims = [(sha256(m.value), m.path) for m in proof.members if m.path is not None]
        if proof.mismatch is not None:
            claims.append((proof.mismatch.expected_hash, proof.mismatch.path))
        leaf, path = draw(st.sampled_from(claims))
    else:
        tree = draw(st.sampled_from(TREES))
        commitment, params = tree.commitment, tree.params
        u = draw(st.integers(1, tree.depth))
        x = draw(st.integers(0, tree.sizes[u] - 1))
        leaf, path = tree.layers[u].hashes[x].tobytes(), honest_path(tree, u, x)
    geo = cit.geometry(params, commitment.block_len)
    kind = draw(st.sampled_from(MEMBERSHIP_MUTATIONS))
    levels = path.levels
    j = draw(st.integers(0, len(levels) - 1))
    k = draw(st.integers(0, len(levels[j]) - 1))
    if kind == "layer":
        u = draw(st.integers(-1, geo.depth + 1).filter(lambda v: v != path.layer))
        path = dataclasses.replace(path, layer=u)
    elif kind == "index":
        size = geo.sizes[path.layer]
        x = draw(st.integers(-1, size).filter(lambda v: v != path.index))
        path = dataclasses.replace(path, index=x)
    elif kind == "level_count":
        levels = levels[:-1] if draw(st.booleans()) else levels + (levels[-1],)
        path = dataclasses.replace(path, levels=levels)
    elif kind == "sibling_count":
        sibs = levels[j][1:] if draw(st.booleans()) else levels[j] + (levels[j][0],)
        path = dataclasses.replace(path, levels=_replace_at(levels, j, sibs))
    elif kind == "sibling_digest":
        sibs = _replace_at(levels[j], k, _flip(levels[j][k], draw(st.integers(0, 31))))
        path = dataclasses.replace(path, levels=_replace_at(levels, j, sibs))
    elif kind == "sibling_width":
        sibs = levels[j]
        if draw(st.booleans()):
            sibs = _replace_at(sibs, k, sibs[k][:-1] if draw(st.booleans()) else sibs[k] + b"\0")
        else:
            # move one byte between two siblings that sit side by side in
            # the joined q-tuple, so the joined bytes, and their digest, stay
            x = path.index
            for w in range(path.layer - 1, path.layer - 1 - j, -1):
                x %= geo.sys_counts[w]
            pos = x // geo.sys_counts[path.layer - 1 - j]
            k = draw(st.sampled_from([k for k in range(len(sibs) - 1) if k + 1 != pos]))
            sibs = sibs[:k] + (sibs[k][:-1], sibs[k][-1:] + sibs[k + 1]) + sibs[k + 2 :]
        path = dataclasses.replace(path, levels=_replace_at(levels, j, sibs))
    elif kind == "leaf_hash":
        leaf = _flip(leaf, draw(st.integers(0, 31))) if draw(st.booleans()) else leaf[:-1]
    elif kind == "params":
        # another code family of the same geometry, or another root size
        params = dataclasses.replace(
            params,
            **draw(st.sampled_from(({"code_seed": params.code_seed + 1},
                                    {"root_size": params.root_size + 1}))),
        )
    elif kind == "root":
        commitment = dataclasses.replace(commitment, root=commitment.root[:-1])
    return kind, commitment, params, leaf, path


@settings(max_examples=300, deadline=None)
@given(membership_claims())
def test_verify_membership_matches_the_reference(claim):
    kind, commitment, params, leaf, path = claim
    want = ref.verify_membership(commitment, params, leaf, path)
    if kind == "honest":
        assert want
    # the package also refuses params the commitment does not echo, as its
    # proof walk and fraud verifier always have; the reference does not
    want = want and params == commitment.params
    assert cit.verify_membership(commitment, params, leaf, path) == want
