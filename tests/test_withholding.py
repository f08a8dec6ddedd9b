"""Withholding every child of one parent hides an invalid coding: the known
soundness gap of aggregating a parent as the digest of its children's
digests joined.

The proposer flips bit 0 of base symbol 901 after encoding, then hashes
and aggregates, so every proof verifies. It withholds the 8 base chunks
under layer-7 parent 5 (x = 5 mod 128, 901 among them), 0.8% of the 1024.
Peeling then decodes every layer, but the tampered symbol's committed
digest is pinned by no collected tuple, so its contradiction cannot be
proven: ``reconstruct`` returns ``Insufficient`` with every layer at
1.000, where the paper promises an incorrect-coding proof. The two strict
xfails below assert that promise, at the library level and through one
oracle round; strict, so they fail the suite the day the gap closes. The
control shows the same tamper convicted when the withholding is not
chosen by the adversary."""

from fractions import Fraction

import numpy as np
import pytest

from daoracle import cit, oracle as orc, retrieval as rt
from daoracle.dispersal import assign_chunks

from conftest import chunkset_for

# the honest_round geometry: 1024 coded base chunks of 1 KiB, depth 8
PARAMS = cit.TreeParams(1024, 4, Fraction(1, 4), 8, 8, 0.125, code_seed=11, gate_trials=24)
TAMPERED = 901
WITHHELD = frozenset(range(5, 1024, 128))  # every child of layer-7 parent 5
N_NODES, BETA, GAMMA = 64, 0.25, 0.5

GAP = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a parent is the digest of its children's digests, so a solved child "
    "no collected tuple pins cannot be convicted (ROADMAP H)",
)


@pytest.fixture(scope="module")
def tree():
    block = np.random.default_rng(0).bytes(256 * 1024)
    return orc.build_tree_with_base_corruption(block, PARAMS, corrupt_index=TAMPERED)


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


@GAP
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


@GAP
def test_a_round_that_commits_despite_the_withholding_ends_in_fraud(tree, committed_round):
    chain, nodes, _votes = committed_round
    result = orc.client_retrieve(chain, nodes, tree.commitment, PARAMS)
    assert_convicted(chain, tree.commitment, result)
