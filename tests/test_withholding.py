"""Withholding every child of one parent does not hide an invalid coding.

The proposer flips bit 0 of base symbol 901 after encoding, then hashes
and aggregates, so every proof verifies. It withholds the 8 base chunks
under layer-7 parent 5 (x = 5 mod 128, 901 among them), 0.8% of the 1024,
which no delivered proof climbs through. Had a parent been the digest of
its children's digests joined, nothing collected would pin the tampered
symbol's digest, and the contradiction could not be proven. A parent is
its children's digests, so the decoded layer above pins every child, and
the reconstruction ends in an incorrect-coding proof, at the library
level and through one oracle round. The control shows the same tamper
convicted when the withholding is not chosen by the adversary."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daoracle import cit, oracle as orc, retrieval as rt
from daoracle.dispersal import assign_chunks
from daoracle.errors import BadCode

from conftest import SMALL, chunkset_for, flipping

# the honest_round geometry: 1024 coded base chunks of 1 KiB, depth 8
PARAMS = cit.TreeParams(1024, 4, Fraction(1, 4), 8, 8, 0.125, code_seed=11, gate_trials=24)
TAMPERED = 901
WITHHELD = frozenset(range(5, 1024, 128))  # every child of layer-7 parent 5
N_NODES, BETA, GAMMA = 64, 0.25, 0.5


@pytest.fixture(scope="module")
def tree():
    block = np.random.default_rng(0).bytes(256 * 1024)
    depth = cit.geometry(PARAMS, len(block)).depth
    return cit.build_tree(block, PARAMS, flipping({depth: [(TAMPERED, 0x01)]}))


def assert_convicted(chain, commitment, result):
    assert isinstance(result, rt.Fraud), result
    assert rt.verify_fraud_proof(commitment, PARAMS, result.proof)
    key16 = orc.commit_key(commitment).hex()[:16]
    assert any(line.startswith(f"FRAUD key={key16} ") for line in chain.log_lines())


def assert_convicted_from(tree, kept):
    """Reconstruct from the chunks ``kept`` as a client of a chain on which
    every node committed the tree, push any fraud proof, and assert the
    conviction."""
    chain = orc.TrustedChain(N_NODES, BETA, GAMMA)
    key = orc.commit_key(tree.commitment)
    orc.chain_submit_votes(chain, tree.commitment, [orc.Vote(i, key) for i in range(N_NODES)])
    result = rt.reconstruct(tree.commitment, PARAMS, chunkset_for(tree, kept))
    if isinstance(result, rt.Fraud):
        orc.chain_submit_fraud(chain, tree.commitment, result.proof)
    assert_convicted(chain, tree.commitment, result)


def test_the_same_tamper_is_convicted_from_a_random_ninety_percent(tree):
    assert_convicted_from(tree, np.random.default_rng(1).choice(1024, 922, replace=False).tolist())


def test_withholding_one_parents_children_still_ends_in_fraud(tree):
    assert_convicted_from(tree, [i for i in range(1024) if i not in WITHHELD])


@pytest.fixture(scope="module")
def committed_round(tree):
    """(chain, nodes, votes) of a round whose proposer strips the withheld
    units from every message: the nodes assigned one of them refuse to
    vote, and the rest still commit."""
    design = assign_chunks(1024, N_NODES, 0.5, seed=3)
    messages = {
        node: orc.DispersalMessage(
            msg.commitment, tuple(u for u in msg.units if u[0] not in WITHHELD), msg.assigned
        )
        for node, msg in orc.messages_for_tree(tree, design).items()
    }
    nodes = [orc.OracleNode(i) for i in range(N_NODES)]
    votes = [orc.node_on_dispersal(node, messages[node.node_id]) for node in nodes]
    votes = [vote for vote in votes if vote is not None]
    chain = orc.TrustedChain(N_NODES, BETA, GAMMA)
    orc.chain_submit_votes(chain, tree.commitment, votes)
    return chain, nodes, votes


def test_the_withholding_round_commits(tree, committed_round):
    chain, _nodes, votes = committed_round
    assert len(votes) == 51 and chain.commit_threshold == 48
    key16 = orc.commit_key(tree.commitment).hex()[:16]
    assert chain.log_lines() == [f"COMMIT id=0 key={key16} votes=51"]


def test_a_round_that_commits_despite_the_withholding_ends_in_fraud(tree, committed_round):
    chain, nodes, _votes = committed_round
    result = orc.client_retrieve(chain, nodes, tree.commitment, PARAMS)
    assert_convicted(chain, tree.commitment, result)


# The same property on the reference tree, for any tamper set and any
# withholding: a reconstruction ends in the block (only when the base layer
# is still a codeword), in a fraud proof that verifies, in a bad-code
# stall, or in an Insufficient from too few chunks, which leaves some
# layer below 1.000 known.

SMALL_PARAMS = cit.TreeParams(**SMALL)
SMALL_BLOCK = bytes((i * 37 + 11) % 256 for i in range(512))  # conftest's small_block
SMALL_GEO = cit.geometry(SMALL_PARAMS, len(SMALL_BLOCK))


@st.composite
def tampers_and_withholdings(draw):
    """({base index: (byte, mask)}, delivered base indices): up to three
    flipped base symbols, and a withholding that is every child of one
    layer-(L-1) parent (often the parent of a flipped symbol), a few
    random chunks, or both, with some of them delivered after all."""
    m, s_par = SMALL_GEO.sizes[-1], SMALL_GEO.sys_counts[-2]
    tampers = draw(st.dictionaries(
        st.integers(0, m - 1),
        st.tuples(st.integers(0, SMALL_PARAMS.symbol_size - 1), st.integers(1, 255)),
        max_size=3,
    ))
    withheld = set(draw(st.sets(st.integers(0, m - 1), max_size=6)))
    if draw(st.booleans()):
        parents = sorted({i % s_par for i in tampers}) or list(range(s_par))
        parent = draw(st.sampled_from(parents))
        withheld |= set(range(parent, m, s_par))
    if withheld:
        withheld -= draw(st.sets(st.sampled_from(sorted(withheld)), max_size=2))
    return tampers, [i for i in range(m) if i not in withheld]


def tampered_tree(tampers):
    """The reference tree with each drawn tamper, {base index: (byte,
    mask)}, XORed into its base symbol after the encode."""

    def flip(u, symbols, _code):
        if u == SMALL_GEO.depth:
            for index, (at, mask) in tampers.items():
                symbols[index, at] ^= mask

    return cit.build_tree(SMALL_BLOCK, SMALL_PARAMS, flip)


def is_codeword(tree) -> bool:
    base = tree.layers[-1].symbols
    return not any(
        np.bitwise_xor.reduce(base[list(eq)]).any()
        for eq in cit.layer_code(tree.commitment.params, len(base)).parity_checks
    )


@settings(max_examples=150, deadline=None)
@given(tampers_and_withholdings())
def test_any_tamper_and_withholding_ends_in_block_fraud_bad_code_or_too_few_chunks(case):
    tampers, delivered = case
    tree = tampered_tree(tampers)
    try:
        result = rt.reconstruct(tree.commitment, SMALL_PARAMS, chunkset_for(tree, delivered))
    except BadCode:
        return
    if isinstance(result, rt.Block):
        assert is_codeword(tree)
        s_base = SMALL_GEO.sys_counts[-1]
        assert result.data == tree.layers[-1].symbols[:s_base].tobytes()[: len(SMALL_BLOCK)]
    elif isinstance(result, rt.Fraud):
        assert not is_codeword(tree)
        assert rt.verify_fraud_proof(tree.commitment, SMALL_PARAMS, result.proof)
    else:
        assert isinstance(result, rt.Insufficient)
        assert min(fraction for _u, fraction in result.known_fractions) < 1.0, result
