"""Proof sampling from shared tables and verification on one frontier
against the one-proof-at-a-time reference in ``tests/reference_proofs.py``:
the same proofs, the same per-proof verdicts, the same harvest from a
single walk, and for a batch and a reconstruction's ingest the same
first-wins merge of what passes. The
proof sets mix honest proofs with single-field mutations, with forged
ancestors shared by several proofs, with forgeries that share positions,
parity keys or objects with honest proofs, over blocks whose child digests
are all equal, and with forgeries placed before and after the honest
proofs whose symbols they imitate, so nothing a walk leaves in the
frontier has a chance to decide a later proof wrongly. The forgeries
include a running digest moved to another slot of its ancestor, ancestor
and parity symbols of the wrong width, a root-layer ancestor that hashes
to another root entry, and a parity symbol whose digest sits at another
slot. Bare digest claims get the reference ``verify_membership``'s
verdict, and so do a fraud proof's claims, all made on one frontier, each
against its own climb: with a forged ancestor two members share, a forged
member placed first or last, a forged mismatch ancestor, and a member that
agrees with an earlier member's held ancestors only part way up."""

import dataclasses
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_proofs as ref
import reference_round
from daoracle import cit, oracle as orc
from daoracle import retrieval as rt
from daoracle import serialize as sz
from daoracle.dispersal import assign_chunks
from daoracle.errors import BadCode, ParameterError
from daoracle.util import HASH_BYTES, sha256

from conftest import SMALL, chunkset_for, flipping, ingested
from fraction_geometry import pom_pairs
from test_geometry import TREES, _flip, _replace_at, mutated_proofs
from test_retrieval import fraud_flavours


def merged(harvests) -> ref.PomHarvest:
    """First-wins merge, in order, of the harvests of the passing proofs."""
    out = ref.PomHarvest()
    for harvest in harvests:
        if harvest is None:
            continue
        for key, val in harvest.values.items():
            out.values.setdefault(key, val)
    return out


def slot(symbol: bytes, pos: int) -> bytes:
    return symbol[pos * HASH_BYTES : (pos + 1) * HASH_BYTES]


def check_batch(tree, poms) -> list:
    """Verdicts equal the reference walk's, proof by proof, each proof
    walked on its own or all on one frontier; what a fresh frontier keeps
    after one proof is that proof's reference harvest, and what one frontier
    and the reconstructor's ingest keep after all of them is the merge of
    the passing harvests; each symbol it holds hashes to the digest at its
    slot of its parent, which it holds too, or at the root layer to the
    commitment's entry. Returns the reference harvests (None for a failing
    proof)."""
    c, p = tree.commitment, tree.commitment.params
    want = [ref.walk_pom(c, p, pom) for pom in poms]
    verdicts = [harvest is not None for harvest in want]
    for pom, harvest in zip(poms, want):
        alone = cit.Frontier(c)
        assert alone.walk(pom) is (harvest is not None)
        assert ingested(alone) == (harvest.values if harvest is not None else {})
    frontier = cit.Frontier(c)
    assert [frontier.walk(pom) for pom in poms] == verdicts
    values = ingested(frontier)
    assert values == merged(want).values
    sys_counts = cit.geometry(p, tree.commitment.block_len).sys_counts
    for (u, x), value in values.items():
        if u == 0:
            assert sha256(value) == c.root[x]
        else:
            s_par = sys_counts[u - 1]
            assert sha256(value) == slot(values[(u - 1, x % s_par)], x // s_par)
    units = tuple((pom.base_index, pom.base_symbol, pom) for pom in poms)
    reader = rt._Reconstructor(c, rt.ChunkSet(c, units))
    assert ingested(reader.frontier) == values
    return want


def path_children(tree, i) -> list[int]:
    """The child index the proof of base index ``i`` enters each
    aggregation through: entry j is at layer depth - j, under parent layer
    depth - 1 - j."""
    geo = cit.geometry(tree.commitment.params, tree.commitment.block_len)
    out, x = [], i
    for u in range(geo.depth - 1, -1, -1):
        out.append(x)
        x %= geo.sys_counts[u]
    return out


def with_slot(symbol: bytes, pos: int, digest: bytes) -> bytes:
    return symbol[: pos * HASH_BYTES] + digest + symbol[(pos + 1) * HASH_BYTES :]


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
    carry one forged ancestor; honest proofs through the same parent are
    mixed in, in any order."""
    tree = draw(st.sampled_from(TREES))
    geo = cit.geometry(tree.commitment.params, tree.commitment.block_len)
    j = draw(st.integers(0, geo.depth - 1))
    s_par = geo.sys_counts[geo.depth - 1 - j]
    par = draw(st.integers(0, s_par - 1))
    k = draw(st.integers(0, tree.commitment.params.batch - 1))
    through = [
        i for i in range(tree.sizes[-1])
        if path_children(tree, i)[j] % s_par == par and path_children(tree, i)[j] // s_par != k
    ]
    picks = draw(st.lists(st.sampled_from(through), min_size=2, max_size=6))
    honest = [cit.sample_pom(tree, i) for i in picks]
    ancestor = honest[0].ancestors[j]
    forged_ancestor = with_slot(ancestor, k, _flip(slot(ancestor, k), draw(st.integers(0, 31))))
    forged = [
        pom._replace(ancestors=_replace_at(pom.ancestors, j, forged_ancestor))
        for pom in honest
    ]
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
    honest = [cit.sample_pom(tree, i) for i in range(tree.sizes[-1])]
    forged = []
    for n, pom in enumerate(honest):
        j = n % len(pom.ancestors)
        ancestor = _flip(pom.ancestors[j], n)
        forged.append(pom._replace(ancestors=_replace_at(pom.ancestors, j, ancestor)))
    # a wrong parity symbol, and an ancestor and a parity symbol one byte
    # too long, ahead of the rest
    for n, pom in enumerate(honest[:3]):
        if n == 0:
            parities = _replace_at(pom.parities, 0, _flip(pom.parities[0], 3))
            forged.append(pom._replace(parities=parities))
        elif n == 1:
            ancestor = pom.ancestors[0] + b"\0"
            forged.append(pom._replace(ancestors=_replace_at(pom.ancestors, 0, ancestor)))
        else:
            parities = _replace_at(pom.parities, 0, pom.parities[0] + b"\0")
            forged.append(pom._replace(parities=parities))
    got = check_batch(tree, forged + honest)
    assert all(harvest is None for harvest in got[: len(forged)])
    assert all(harvest is not None for harvest in got[len(forged):])


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixed_sets(), shared_forgeries().map(lambda case: case[:2])))
def test_ingest_keeps_the_collected_tuples_upward_closed(case):
    """With symbol x of layer u, ingest also holds its parent (u - 1, x mod
    s): the committed digest of every symbol it holds is in hand, and the
    parents are the only digests the reconstructor reads above the
    layers it decodes."""
    tree, poms = case
    units = tuple((pom.base_index, pom.base_symbol, pom) for pom in poms)
    reader = rt._Reconstructor(tree.commitment, rt.ChunkSet(tree.commitment, units))
    sys_counts = cit.geometry(tree.commitment.params, tree.commitment.block_len).sys_counts
    values = ingested(reader.frontier)
    for u, x in values:
        assert u == 0 or (u - 1, x % sys_counts[u - 1]) in values


@st.composite
def pair_forgeries(draw):
    """(tree, forged proof, honest proof): the forged proof's chain is the
    honest one, but one parity symbol is another symbol under the same
    parent, with its true value and a value other than the sampled one's,
    so its digest sits at another slot of that parent; or it is the honest
    parity symbol with one byte flipped."""
    tree = draw(st.sampled_from(TREES))
    geo = cit.geometry(tree.commitment.params, tree.commitment.block_len)
    honest = cit.sample_pom(tree, draw(st.integers(0, tree.sizes[-1] - 1)))
    j = draw(st.integers(0, len(honest.parities) - 1))
    u = geo.depth - 1 - j
    e_idx = pom_pairs(tree.commitment.params, geo.sizes, honest.base_index)[j][1]
    s_up = geo.sys_counts[u - 1]
    # small layer codes repeat symbols: only another value is a forgery
    others = {tree.layers[u].symbols[x] for x in range(e_idx % s_up, geo.sizes[u], s_up)}
    others.discard(honest.parities[j])
    if others and draw(st.booleans()):
        parity = draw(st.sampled_from(sorted(others)))
    else:
        parity = _flip(honest.parities[j], draw(st.integers(0, 255)))
    forged = honest._replace(parities=_replace_at(honest.parities, j, parity))
    return tree, forged, honest


@settings(max_examples=100, deadline=None)
@given(pair_forgeries())
def test_an_honest_chain_with_a_forged_pair_is_rejected(case):
    tree, forged, honest = case
    got = check_batch(tree, [forged, honest])
    assert got[0] is None and got[1] is not None


# The frontier: a walk stops climbing at the first position an earlier
# passing proof authenticated, and stops checking parity symbols at the
# first parity key one did. Each case puts forgeries next to honest proofs
# whose positions they share.

# zero blocks: every child digest of a layer is equal, whatever its position
ZERO_TREES = tuple(
    cit.build_tree(bytes(tree.commitment.block_len), tree.commitment.params) for tree in TREES
)


def _resized(symbol: bytes, longer: bool) -> bytes:
    return symbol + b"\0" if longer else symbol[:-1]


@st.composite
def frontier_sets(draw):
    """(tree, proofs, which must fail): honest proofs, each sampled from the
    tree's tables (so proofs share symbols) or decoded from a chunk bundle
    (so it shares no objects), and forgeries, in any order. A forgery
    climbs through the parent of an honest proof's base symbol and then
    changes one ancestor: a byte above the first, the running digest moved
    to another slot, a wrong width, or at the root layer another root
    symbol; or shares one of an honest proof's parity keys (u, i mod (m_u -
    s_u)) and forges one parity symbol, below, at or above that layer: a
    byte, a wrong width, or another symbol under the same parent; or is any
    single-field mutation. A forgery that differs from the proof it was
    made from must fail."""
    tree = draw(st.sampled_from(TREES + ZERO_TREES))
    geo = cit.geometry(tree.commitment.params, tree.commitment.block_len)
    depth, sizes, sys_counts = geo.depth, geo.sizes, geo.sys_counts
    m = sizes[depth]
    picks = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    honest = [cit.sample_pom(tree, i) for i in picks]
    units = tuple((pom.base_index, pom.base_symbol, pom) for pom in honest)
    decoded = [pom for _, _, pom in sz.decode_chunk_bundle(sz.encode_chunk_bundle(units))]
    honest = [draw(st.sampled_from((pom, copy))) for pom, copy in zip(honest, decoded)]
    forged, must_fail = [], []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.sampled_from(picks))
        kind = draw(st.sampled_from(("ancestor", "parity", "mutation")))
        if kind == "ancestor":
            s_par = sys_counts[depth - 1]
            pom = cit.sample_pom(tree, draw(st.sampled_from(range(i % s_par, m, s_par))))
            ancestors = pom.ancestors
            how = draw(st.sampled_from(("byte", "slot", "width", "root")))
            if how == "byte":
                j = draw(st.integers(1, depth - 1))
                ancestor = _flip(ancestors[j], draw(st.integers(0, len(ancestors[j]) - 1)))
            elif how == "slot":
                # the running digest swapped with another child's
                j = draw(st.integers(0, depth - 1))
                pos = path_children(tree, pom.base_index)[j] // sys_counts[depth - 1 - j]
                batch = tree.commitment.params.batch
                k = draw(st.integers(0, batch - 1).filter(lambda k: k != pos))
                ancestor = with_slot(ancestors[j], k, slot(ancestors[j], pos))
                ancestor = with_slot(ancestor, pos, slot(ancestors[j], k))
            elif how == "width":
                j = draw(st.integers(0, depth - 1))
                ancestor = _resized(ancestors[j], draw(st.booleans()))
            else:
                # a root-layer symbol that hashes to another root entry
                j = depth - 1
                at = draw(st.integers(0, sizes[0] - 1).filter(lambda x: x != i % sys_counts[0]))
                ancestor = tree.layers[0].symbols[at]
            bad = pom._replace(ancestors=_replace_at(ancestors, j, ancestor))
        elif kind == "parity":
            u_key = draw(st.integers(1, depth - 1))
            mod = sizes[u_key] - sys_counts[u_key]
            pom = cit.sample_pom(tree, draw(st.sampled_from(range(i % mod, m, mod))))
            j = draw(st.integers(0, depth - 2))
            u = depth - 1 - j
            parity = pom.parities[j]
            how = draw(st.sampled_from(("byte", "width", "other")))
            if how == "byte":
                parity = _flip(parity, draw(st.integers(0, len(parity) - 1)))
            elif how == "width":
                parity = _resized(parity, draw(st.booleans()))
            else:
                # another symbol under the same parent, with its true value
                e_idx = pom_pairs(tree.commitment.params, sizes, pom.base_index)[j][1]
                s_up = sys_counts[u - 1]
                x = draw(st.sampled_from(
                    [x for x in range(e_idx % s_up, sizes[u], s_up) if x != e_idx]
                ))
                parity = tree.layers[u].symbols[x]
            bad = pom._replace(parities=_replace_at(pom.parities, j, parity))
        else:
            # some mutations of a zero-block proof are another honest proof
            pom = bad = draw(mutated_proofs(trees=(tree,)))[2]
        forged.append(bad)
        must_fail.append(bad != pom)
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
    got = check_batch(tree, [cit.sample_pom(tree, i) for i in range(0, m, 2)])
    assert all(harvest is not None for harvest in got)
    out = rt.reconstruct(tree.commitment, tree.commitment.params, chunkset_for(tree, range(m - 4)))
    assert out == rt.Block(bytes(tree.commitment.block_len))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TREES), st.data())
def test_batched_sampling_matches_the_reference(tree, data):
    m = tree.sizes[-1]
    indices = data.draw(st.lists(st.integers(0, m - 1), max_size=24))
    indices += data.draw(st.lists(st.sampled_from(indices), max_size=4)) if indices else []
    want = [ref.sample_pom(tree, i) for i in indices]
    assert [cit.sample_pom(tree, i) for i in indices] == want


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(TREES), st.data())
def test_batched_sampling_rejects_an_out_of_range_index(tree, data):
    m = tree.sizes[-1]
    indices = data.draw(st.lists(st.integers(0, m - 1), max_size=8))
    bad = data.draw(st.one_of(st.integers(-3, -1), st.integers(m, m + 3)))
    indices.insert(data.draw(st.integers(0, len(indices))), bad)
    with pytest.raises(ParameterError):
        [cit.sample_pom(tree, i) for i in indices]


# The sampling tables: each tree's build makes its own, and every proof,
# from any call, is read from them.

# (params, block length) of each tree built per draw, so every case starts
# from empty tables: the geometries of TREES, and one of depth 1, whose
# proofs carry no parity symbols
TABLE_BLOCKS = tuple((tree.commitment.params, tree.commitment.block_len) for tree in TREES) + (
    (cit.TreeParams(**SMALL), 128),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TABLE_BLOCKS), st.booleans(), st.data())
def test_sampling_tables_match_the_reference(shape, zero, data):
    """Two trees of one geometry sampled in alternation, at repeated
    indices in any order, one proof or several per draw, give the
    reference proofs: the tables of one tree never answer for the other,
    and on a zero block (as in ZERO_TREES), where equal rows sit at
    different positions, the tables keep each position's own."""
    params, block_len = shape
    salt = data.draw(st.integers(1, 255))
    blocks = [bytes((i * 37 + salt) % 256 for i in range(block_len))]
    blocks.append(bytes(block_len) if zero else bytes(reversed(blocks[0])))
    trees = [cit.build_tree(block, params) for block in blocks]
    m = trees[0].sizes[-1]
    draws = data.draw(st.lists(
        st.tuples(st.integers(0, 1), st.lists(st.integers(0, m - 1), min_size=1, max_size=4)),
        min_size=1, max_size=12,
    ))
    # the same proofs again, from tables that already hold them
    draws += data.draw(st.lists(st.sampled_from(draws), max_size=4))
    for which, indices in draws:
        tree = trees[which]
        want = [ref.sample_pom(tree, i) for i in indices]
        assert [cit.sample_pom(tree, i) for i in indices] == want
    if shape == TABLE_BLOCKS[-1]:
        assert len(trees[0].layers) == 2 and want[0].parities == ()


# the round workloads' geometry (depth 8, 1024 coded base symbols) with
# 4-byte symbols
ROUND_PARAMS = cit.TreeParams(4, 4, Fraction(1, 4), 8, 8, 0.125, code_seed=11, gate_trials=24)
ROUND_SHAPE = (ROUND_PARAMS, 1024)


@pytest.mark.parametrize("zero", (False, True), ids=("block", "zero"))
@pytest.mark.parametrize(
    "shape", TABLE_BLOCKS + (ROUND_SHAPE,), ids=("small", "deep", "depth1", "round")
)
def test_fresh_tables_give_the_reference_proof_of_every_index(shape, zero):
    """The tables of one fresh tree, built in one pass with the tree, give
    the reference proof of every base index, so indices no earlier proof
    asked for are covered too."""
    params, block_len = shape
    block = bytes(block_len) if zero else bytes((i * 53 + 9) % 256 for i in range(block_len))
    tree = cit.build_tree(block, params)
    m = tree.sizes[-1]
    s_top = cit.geometry(params, block_len).sys_counts[-2]
    assert len(tree.sampling.ancestors) == s_top
    for i in range(m):
        assert cit.sample_pom(tree, i) == ref.sample_pom(tree, i)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(TABLE_BLOCKS), st.data())
def test_an_out_of_range_index_raises_and_leaves_the_tables_intact(shape, data):
    params, block_len = shape
    tree = cit.build_tree(bytes(block_len), params)
    m = tree.sizes[-1]
    bad = data.draw(st.one_of(st.integers(-3, -1), st.integers(m, m + 3)))
    with pytest.raises(ParameterError):
        cit.sample_pom(tree, bad)
    assert cit.sample_pom(tree, m - 1) == ref.sample_pom(tree, m - 1)


def test_duplicate_indices_sample_equal_proofs():
    tree = TREES[0]
    poms = [cit.sample_pom(tree, i) for i in (3, 3, 0, 3)]
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


def test_a_proof_is_an_immutable_tuple_of_its_five_fields():
    """The field order the positional builders (``cit.sample_pom``,
    ``serialize``) and ``Frontier.walk``'s unpacking rely on; a proof
    cannot be edited in place, and survives its encoding."""
    assert cit.ProofOfMembership._fields == (
        "base_index", "base_symbol", "block_len", "ancestors", "parities"
    )
    tree = TREES[0]
    for i in range(tree.sizes[-1]):
        pom = cit.sample_pom(tree, i)
        assert tuple(pom) == (
            pom.base_index, pom.base_symbol, pom.block_len, pom.ancestors, pom.parities
        )
        assert sz.decode_pom(sz.encode_pom(pom)) == pom
    for field in cit.ProofOfMembership._fields:
        with pytest.raises(AttributeError):
            setattr(pom, field, getattr(pom, field))


def test_round_dispersal_units_are_the_reference_proofs_one_per_chunk():
    """On the round geometry with a round's design (64 nodes, lambda 0.5,
    32 slots each), each node's units are its distinct chunks ascending,
    each the reference proof with its base symbol, and a chunk assigned to
    several nodes is one unit object shared by all of them."""
    tree = cit.build_tree(bytes((i * 53 + 9) % 256 for i in range(ROUND_SHAPE[1])), ROUND_PARAMS)
    m = tree.sizes[-1]
    design = assign_chunks(m, 64, 0.5, seed=3)
    base = tree.layers[-1].symbols
    shared = {}
    for node, msg in orc.messages_for_tree(tree, design).items():
        indices = sorted(set(design.assignments[node].tolist()))
        assert [unit[0] for unit in msg.units] == indices
        for i, unit in zip(indices, msg.units):
            assert unit == (i, base[i].tobytes(), ref.sample_pom(tree, i))
            assert unit[1] is unit[2].base_symbol
            assert shared.setdefault(i, unit) is unit


def test_audit_fails_a_voter_holding_one_forged_proof():
    tree = TREES[0]
    design = assign_chunks(32, 4, 1.0, seed=21)
    messages = orc.messages_for_tree(tree, design)
    nodes = [orc.OracleNode(i) for i in range(4)]
    chain = orc.TrustedChain(4, 0.25, 0.5)
    votes = [orc.node_on_dispersal(n, messages[n.node_id]) for n in nodes]
    orc.chain_submit_votes(chain, tree.commitment, votes)
    # node 0 keeps its units, but the proof of its last one now carries a
    # forged ancestor
    key = orc.commit_key(tree.commitment)
    idx = max(i for k, i in nodes[0].stored if k == key)
    _idx, symbol, pom = nodes[0].stored[(key, idx)]
    forged = pom._replace(
        ancestors=_replace_at(pom.ancestors, 1, _flip(pom.ancestors[1], 0))
    )
    nodes[0].stored[(key, idx)] = (idx, symbol, forged)
    rng = np.random.default_rng(7)
    outcomes = [orc.audit(chain, nodes, tree.commitment, 1.0, rng, design) for _ in range(20)]
    assert {o.passed for o in outcomes if o.audited == 0} == {False}
    assert {o.passed for o in outcomes if o.audited != 0} == {True}


# explicit checks: malformed input is False, a fault inside is an exception


def test_a_commitment_that_names_no_tree_cannot_be_built():
    """A root of another length than root_size, a root entry that is not a
    digest, or a block_len whose base layer is past MAX_BASE_SYMBOLS raises
    ParameterError, so no frontier or encoding ever sees one."""
    c = TREES[0].commitment
    p = c.params
    too_long = (cit.MAX_BASE_SYMBOLS // p.rate.denominator + 1) * p.symbol_size
    for edit, message in (
        ({"root": c.root[:-1]}, "root_size = 4 digests"),
        ({"root": (c.root[0][:-1],) + c.root[1:]}, "digests of 32 bytes"),
        ({"block_len": too_long}, "exceeds the cap"),
    ):
        with pytest.raises(ParameterError, match=message):
            dataclasses.replace(c, **edit)


@pytest.mark.parametrize("field", ("code_seed", "root_size"))
def test_params_the_commitment_does_not_carry_verify_nothing(field, fraud_case, small_block):
    """Both entry points that take params beside a commitment check them
    against the commitment's: another code family of the same geometry, or
    another root size, gives False, and reconstruct raises. A frontier
    takes the commitment alone, so it reads the params it carries."""
    tree = TREES[0]
    c, p = tree.commitment, tree.commitment.params
    other = dataclasses.replace(p, **{field: getattr(p, field) + 1})
    chunks = chunkset_for(tree, range(tree.sizes[-1]))
    commitment, params, proof = fraud_case
    assert params is p
    # each check passes with the commitment's own params, or equal ones
    for q in (p, dataclasses.replace(p)):
        assert rt.reconstruct(c, q, chunks) == rt.Block(small_block)
        assert rt.verify_fraud_proof(commitment, q, proof)
    with pytest.raises(ParameterError, match="commitment echo"):
        rt.reconstruct(c, other, chunks)
    assert not rt.verify_fraud_proof(commitment, other, proof)


@lru_cache(maxsize=None)
def _fraud_case():
    params = TREES[0].commitment.params
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

    def no_code(params, size):
        raise BadCode("gate failed", layer_size=size)

    monkeypatch.setattr(rt, "layer_code", no_code)
    assert not rt.verify_fraud_proof(commitment, params, proof)


def spy(*_args, **_kwargs):
    raise RuntimeError("spy")


def test_a_fault_inside_the_membership_verifier_propagates(monkeypatch):
    tree = TREES[0]
    pom = cit.sample_pom(tree, 5)
    u = len(tree.layers) - 1
    leaf, ancestors = sha256(tree.layers[u].symbols[5]), honest_ancestors(tree, u, 5)
    monkeypatch.setattr(cit, "sha256", spy)
    for call in (
        lambda: cit.Frontier(tree.commitment).walk(pom),
        lambda: cit.Frontier(tree.commitment).claim(u, 5, leaf, ancestors),
    ):
        with pytest.raises(RuntimeError, match="spy"):
            call()


def test_a_fault_inside_the_fraud_verifier_propagates(fraud_case, monkeypatch):
    commitment, params, proof = fraud_case
    monkeypatch.setattr(rt, "layer_code", spy)
    with pytest.raises(RuntimeError, match="spy"):
        rt.verify_fraud_proof(commitment, params, proof)
    monkeypatch.undo()
    assert proof.members  # each member is claimed through verify_membership
    monkeypatch.setattr(rt, "verify_membership", spy)
    with pytest.raises(RuntimeError, match="spy"):
        rt.verify_fraud_proof(commitment, params, proof)


# verify_membership against the reference


def honest_ancestors(tree, u: int, x: int) -> tuple[bytes, ...]:
    """The ancestors of symbol x of layer u, read off the tree's rows: one
    at each layer up to the root layer."""
    geo = cit.geometry(tree.commitment.params, tree.commitment.block_len)
    return tuple(tree.layers[w].symbols[x % geo.sys_counts[w]] for w in range(u - 1, -1, -1))


# the kinds that change an ancestor, which a root-layer claim has none of
ANCESTOR_MUTATIONS = ("ancestor_count", "ancestor_width", "ancestor_byte", "ancestor_slot")
MEMBERSHIP_MUTATIONS = ("honest", "layer", "index", "leaf_hash", "params") + (
    ANCESTOR_MUTATIONS
)


@st.composite
def membership_claims(draw):
    """(kind, commitment, honest claim, claim): an honest (layer, index,
    leaf hash, ancestors) claim, taken from a fraud proof or read off a tree
    at any layer, the root layer included, and the claim, which is it or
    differs from it in the single field ``kind`` names."""
    if draw(st.booleans()):
        commitment, params, proof = _fraud_case()
        u = proof.layer
        claims = [(u, m.index, sha256(m.value), m.ancestors) for m in proof.members]
        if proof.mismatch is not None:
            mm = proof.mismatch
            claims.append((u, mm.index, mm.expected_hash, mm.ancestors))
        honest = draw(st.sampled_from(claims))
    else:
        tree = draw(st.sampled_from(TREES))
        commitment, params = tree.commitment, tree.commitment.params
        u = draw(st.integers(0, len(tree.layers) - 1))
        x = draw(st.integers(0, tree.sizes[u] - 1))
        honest = (u, x, sha256(tree.layers[u].symbols[x]), honest_ancestors(tree, u, x))
    u, x, leaf, ancestors = honest
    geo = cit.geometry(params, commitment.block_len)
    kinds = MEMBERSHIP_MUTATIONS if ancestors else MEMBERSHIP_MUTATIONS[:-len(ANCESTOR_MUTATIONS)]
    kind = draw(st.sampled_from(kinds))
    if ancestors:
        j = draw(st.integers(0, len(ancestors) - 1))
    if kind == "layer":
        u = draw(st.integers(-1, geo.depth + 1).filter(lambda v: v != honest[0]))
    elif kind == "index":
        x = draw(st.integers(-1, geo.sizes[u]).filter(lambda v: v != honest[1]))
    elif kind == "ancestor_count":
        ancestors = ancestors[:-1] if draw(st.booleans()) else ancestors + (ancestors[-1],)
    elif kind == "ancestor_width":
        ancestor = ancestors[j][:-1] if draw(st.booleans()) else ancestors[j] + b"\0"
        ancestors = _replace_at(ancestors, j, ancestor)
    elif kind == "ancestor_byte":
        ancestor = _flip(ancestors[j], draw(st.integers(0, len(ancestors[j]) - 1)))
        ancestors = _replace_at(ancestors, j, ancestor)
    elif kind == "ancestor_slot":
        # the running digest written at another slot of the ancestor too,
        # or moved there
        at = x
        for w in range(u - 1, u - 1 - j, -1):
            at %= geo.sys_counts[w]
        pos = at // geo.sys_counts[u - 1 - j]
        k = draw(st.integers(0, params.batch - 1).filter(lambda k: k != pos))
        ancestor = with_slot(ancestors[j], k, slot(ancestors[j], pos))
        if draw(st.booleans()):
            ancestor = with_slot(ancestor, pos, slot(ancestors[j], k))
        ancestors = _replace_at(ancestors, j, ancestor)
    elif kind == "leaf_hash":
        leaf = _flip(leaf, draw(st.integers(0, 31))) if draw(st.booleans()) else leaf[:-1]
    elif kind == "params":
        # the commitment carries another code family of the same geometry
        other = dataclasses.replace(params, code_seed=params.code_seed + 1)
        commitment = dataclasses.replace(commitment, params=other)
    return kind, commitment, honest, (u, x, leaf, ancestors)


def truncated_leaf_claim():
    """A base symbol's honest claim, and the claim of its digest less its
    last byte: every slot of the honest ancestors starts with it."""
    tree = TREES[0]
    u, x = len(tree.layers) - 1, 5
    leaf, ancestors = sha256(tree.layers[u].symbols[x]), honest_ancestors(tree, u, x)
    return "leaf_hash", tree.commitment, (u, x, leaf, ancestors), (u, x, leaf[:-1], ancestors)


@settings(max_examples=300, deadline=None)
@given(membership_claims())
@example(truncated_leaf_claim())
def test_verify_membership_matches_the_reference(claim):
    """A claim gets the reference verdict on a fresh frontier, and on one
    that took the honest claim it was made from first."""
    kind, commitment, honest, claimed = claim
    want = ref.verify_membership(commitment, commitment.params, *claimed)
    if kind == "honest":
        assert want
    assert cit.verify_membership(cit.Frontier(commitment), *claimed) == want
    frontier = cit.Frontier(commitment)
    assert cit.verify_membership(frontier, *honest) == ref.verify_membership(
        commitment, commitment.params, *honest
    )
    assert cit.verify_membership(frontier, *claimed) == want


# a fraud proof's claims on one frontier against each claim's own climb


@lru_cache(maxsize=None)
def claimed_frauds() -> dict:
    """{name: (commitment, proof)}: honest incorrect-coding proofs whose
    members carry ancestors: an equation fraud and a mismatch fraud on the
    base layer, and an equation fraud on a digest layer (layer 2 of 3)."""
    out = {}
    for name in ("equation", "mismatch"):
        commitment, _params, proof = fraud_flavours()[name]
        out[name] = (commitment, proof)
    params = TREES[0].commitment.params
    block = bytes((i * 37 + 11) % 256 for i in range(512))
    tree = cit.build_tree(block, params, flipping({2: [(12, 0x5A)]}))
    fraud = rt.reconstruct(tree.commitment, params, chunkset_for(tree, range(32)))
    assert fraud.proof.layer == 2 and len(fraud.proof.members) == 4
    out["digest"] = (tree.commitment, fraud.proof)
    return out


def forged(claim, j: int, at: int):
    """A fraud member or mismatch with byte ``at`` of its ancestor j
    flipped."""
    ancestors = claim.ancestors
    return dataclasses.replace(claim, ancestors=_replace_at(ancestors, j, _flip(ancestors[j], at)))


FRAUD_CLAIM_KINDS = (
    "honest", "forged_first", "forged_last", "shared_forged_ancestor", "partial_agreement",
    "forged_mismatch_ancestor",
)


@st.composite
def fraud_claims(draw):
    """(kind, commitment, proof): an honest proof, or one with forged
    claims, in the member order ``kind`` names."""
    name = draw(st.sampled_from(sorted(claimed_frauds())))
    commitment, proof = claimed_frauds()[name]
    kinds = FRAUD_CLAIM_KINDS if proof.mismatch is not None else FRAUD_CLAIM_KINDS[:-1]
    kind = draw(st.sampled_from(kinds))
    members, mm = list(proof.members), proof.mismatch
    sys_counts = cit.geometry(commitment.params, commitment.block_len).sys_counts
    u, width = proof.layer, commitment.params.batch * HASH_BYTES

    def shares(a, b, j) -> bool:
        """Members a and b climb through one ancestor position at j."""
        s = sys_counts[u - 1 - j]
        return members[a].index % s == members[b].index % s

    at = draw(st.integers(0, width - 1))
    if kind in ("forged_first", "forged_last"):
        member = members.pop(draw(st.integers(0, len(members) - 1)))
        member = forged(member, draw(st.integers(0, u - 1)), at)
        members = [member] + members if kind == "forged_first" else members + [member]
    elif kind == "shared_forged_ancestor":
        # every pair shares the root-layer ancestor at least
        a, b = draw(st.lists(st.integers(0, len(members) - 1), min_size=2, max_size=2, unique=True))
        j = draw(st.sampled_from([j for j in range(u) if shares(a, b, j)]))
        for k in (a, b):
            members[k] = forged(members[k], j, at)
    elif kind == "partial_agreement":
        # member b, placed after a, climbs into a's held ancestors below
        # the root layer and carries a forged ancestor above that position
        a, b, j, above = draw(st.sampled_from([
            (a, b, j, above)
            for a in range(len(members)) for b in range(len(members)) if a != b
            for j in range(u - 1) if shares(a, b, j)
            for above in range(j + 1, u)
        ]))
        first, last = members[a], members[b]
        last = forged(last, above, at)
        members = [first] + [m for k, m in enumerate(members) if k not in (a, b)] + [last]
    elif kind == "forged_mismatch_ancestor":
        mm = forged(mm, draw(st.integers(0, u - 1)), at)
    return kind, commitment, dataclasses.replace(proof, members=tuple(members), mismatch=mm)


@settings(max_examples=200, deadline=None)
@given(fraud_claims())
def test_fraud_proof_claims_on_one_frontier_match_each_claim_alone(case):
    kind, commitment, proof = case
    want = reference_round.fraud_holds(commitment, proof)
    assert want is (kind == "honest")
    assert rt.verify_fraud_proof(commitment, commitment.params, proof) is want


def test_one_frontier_pins_the_hashes_of_a_round(monkeypatch):
    """cit sha256 calls on the round workloads' tree (1 KiB symbols, a 256
    KiB block drawn from seed 3): a node's batch of 32 proofs, one client's
    ingest of 800 proofs, and the check of the invalid-coding proposer's
    fraud proof (layer 8, equation 0, 4 members), whose members climb on
    one frontier and so hash their shared ancestors once: 20 calls, where a
    frontier per member made 32."""
    params = cit.TreeParams(
        symbol_size=1024, root_size=4, rate=Fraction(1, 4), batch=8, max_eq_degree=8,
        alpha=0.125, code_seed=11, gate_trials=24,
    )
    rng = np.random.default_rng(3)
    block = rng.bytes(256 * 1024)
    honest = cit.build_tree(block, params)
    corrupted = orc.build_tree_with_base_corruption(block, params)
    n = honest.sizes[-1]
    batch = [cit.sample_pom(honest, i) for i in sorted(rng.choice(n, 32, replace=False))]
    ingest = chunkset_for(honest, rng.choice(n, 800, replace=False))
    fraud = rt.reconstruct(corrupted.commitment, params, chunkset_for(corrupted, range(n)))
    proof = fraud.proof
    assert (proof.layer, proof.equation_no, len(proof.members)) == (8, 0, 4)
    assert len(sz.encode_fraud_proof(proof)) == 12391

    calls = []

    def counted(data):
        calls.append(1)
        return sha256(data)

    monkeypatch.setattr(cit, "sha256", counted)
    frontier = cit.Frontier(honest.commitment)
    assert all(frontier.walk(pom) for pom in batch) and len(calls) == 293
    calls.clear()
    assert rt.reconstruct(honest.commitment, params, ingest) == rt.Block(block)
    assert len(calls) == 1810
    calls.clear()
    assert rt.verify_fraud_proof(corrupted.commitment, params, proof)
    assert len(calls) == 20
