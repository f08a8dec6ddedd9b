"""Batched proof sampling and verification against the one-proof-at-a-time
reference in ``tests/reference_proofs.py``: the same proofs, the same
per-proof verdicts and harvests, and the same first-wins merge of what
passes. The proof sets mix honest proofs with single-field mutations, with
forged q-tuples shared by several proofs, and with forgeries placed before
the honest proofs whose tuples they imitate, so a memo entry made while
walking a forgery has every chance to decide a later proof."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_proofs as ref
from daoracle import cit, oracle as orc
from daoracle import retrieval as rt
from daoracle.dispersal import assign_chunks
from daoracle.errors import BadCode, IndexOutOfRange

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
    """Batched verdicts and harvests equal the reference walk's, proof by
    proof, and the reconstructor's ingest keeps their merge."""
    c, p = tree.commitment, tree.params
    want = [ref.walk_pom(c, p, pom) for pom in poms]
    assert cit.walk_poms(c, p, poms) == want
    units = tuple((pom.base_index, pom.base_symbol, pom) for pom in poms)
    reader = rt._Reconstructor(c, p, rt.ChunkSet(c, units))
    expect = merged(want)
    assert reader.values == expect.values
    assert reader.tuples == expect.tuples
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
    assert cit.walk_poms(short, tree.params, [pom, pom]) == [None, None]


@pytest.fixture(scope="module")
def fraud_case():
    params = TREES[0].params
    block = bytes((i * 37 + 11) % 256 for i in range(512))
    corrupted = orc.build_tree_with_base_corruption(block, params, xor_mask=0x5A)
    out = rt.reconstruct(corrupted.commitment, params, chunkset_for(corrupted, range(32)))
    assert isinstance(out, rt.Fraud)
    return corrupted.commitment, params, out.proof


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
