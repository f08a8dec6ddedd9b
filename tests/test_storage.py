"""Per-commitment storage reads against the full-scan reference in
``tests/reference_storage.py``: a node's retrieval answer, the units a client
gathers and the units the bad-code round pools are the same units, in the
same order, over nodes holding 21 commitments whose units arrived
interleaved, with every behavior, a forged stored unit, and commitments
dispersed twice to the same node, which keeps the units of both. Storage
that raises when iterated shows that serving one commitment reads nothing
of the others."""

from functools import lru_cache

import numpy as np
import pytest

import reference_storage as ref
import test_oracle
import test_simnet
from daoracle import cit, oracle as orc
from daoracle import retrieval as rt
from daoracle import simnet as sn
from daoracle.dispersal import assign_chunks
from daoracle.errors import BadCode

from conftest import SMALL

Behavior = orc.Behavior
# every behavior, enough honest nodes to serve the whole block
BEHAVIORS = (Behavior.HONEST,) * 5 + (
    Behavior.SILENT,
    Behavior.WITHHOLD_AFTER_VOTE,
    Behavior.VOTE_WITHOUT_STORE,
)
N_NODES = len(BEHAVIORS)
N_COMMITMENTS = 21
SPURIOUS = BadCode("spurious", layer_size=32)


class NoScan(dict):
    """Stored units that may be looked up but never iterated."""

    def _scan(self, *_args):
        raise AssertionError("a read walked every stored unit")

    __iter__ = items = keys = values = _scan


def design(seed: int):
    return assign_chunks(32, N_NODES, 0.25, seed=seed)  # 16 draws per node


@lru_cache(maxsize=None)
def history():
    """(block, tree, messages) of each of the 21 commitments."""
    params = cit.TreeParams(**SMALL)
    out = []
    for c in range(N_COMMITMENTS):
        block = np.random.default_rng(c).bytes(512)
        tree, messages = orc.client_disperse(block, params, design(c))
        out.append((block, tree, messages))
    return tuple(out)


def key_of(c: int) -> bytes:
    return orc.commit_key(history()[c][1].commitment)


def interleaved_nodes(seed: int, stored=dict):
    """Nodes that took every commitment's message, in a shuffled order of
    (commitment, node) deliveries."""
    nodes = [orc.OracleNode(i, b, stored=stored()) for i, b in enumerate(BEHAVIORS)]
    deliveries = [(c, n) for c in range(N_COMMITMENTS) for n in range(N_NODES)]
    for pos in np.random.default_rng(seed).permutation(len(deliveries)):
        c, n = deliveries[pos]
        orc.node_on_dispersal(nodes[n], history()[c][2][n])
    return nodes


def pooled(monkeypatch, nodes, commitment) -> tuple:
    """The units ``bad_code_round`` pools before it reconstructs."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(orc, "reconstruct", lambda _c, _p, chunks: seen.append(chunks.units))
        orc.bad_code_round(nodes, commitment, SPURIOUS, orc.TrustedChain(N_NODES, 0.375, 0.5))
    (units,) = seen
    return units


def assert_matches_reference(monkeypatch, nodes):
    for c in range(N_COMMITMENTS):
        key = key_of(c)
        for node in nodes:
            assert orc.node_on_retrieval(node, key) == ref.node_on_retrieval(node, key)
        assert orc.gather_units(nodes, key) == ref.gather_units(nodes, key)
        assert pooled(monkeypatch, nodes, history()[c][1].commitment) == ref.pooled_units(
            nodes, key
        )
    unknown = bytes(32)
    assert orc.gather_units(nodes, unknown) == ref.gather_units(nodes, unknown) == ()
    # the lookup reaches every stored unit
    for node in nodes:
        assert sum(len(node.units(k)) for k in node.assigned) == len(node.stored)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interleaved_history_matches_the_full_scan(seed, monkeypatch):
    nodes = interleaved_nodes(seed)
    assert all(
        len(node.assigned) == N_COMMITMENTS
        for node in nodes
        if node.behavior is not Behavior.SILENT
    )
    assert min(len(node.stored) for node in nodes[:5]) >= N_COMMITMENTS * 8
    assert_matches_reference(monkeypatch, nodes)


def test_a_forged_stored_unit_is_served_as_stored(monkeypatch):
    nodes = interleaved_nodes(3)
    key = key_of(4)
    idx, symbol, pom = nodes[0].units(key)[-1]
    forged = (idx, bytes(len(symbol)), pom)
    nodes[0].stored[(key, idx)] = forged
    assert forged in orc.node_on_retrieval(nodes[0], key)
    assert_matches_reference(monkeypatch, nodes)


def test_a_second_message_for_one_commitment_adds_to_the_first(monkeypatch):
    nodes = interleaved_nodes(4)
    _block, tree, first = history()[6]
    key = key_of(6)
    again = orc.messages_for_tree(tree, design(1000))
    for node in nodes:
        before = dict(node.stored)
        held = {unit[0]: unit for unit in node.units(key)}
        orc.node_on_dispersal(node, again[node.node_id])
        if node.behavior in (Behavior.HONEST, Behavior.WITHHOLD_AFTER_VOTE):
            # the units of both messages, the second's where both hold one
            held.update((unit[0], unit) for unit in again[node.node_id].units)
        assert node.units(key) == tuple(held[i] for i in sorted(held))
        if node.behavior is not Behavior.SILENT:
            both = set(first[node.node_id].assigned) | set(again[node.node_id].assigned)
            assert node.assigned[key] == tuple(sorted(both))
        # units of the other commitments are untouched
        after = {k: v for k, v in node.stored.items() if k[0] != key}
        assert after == {k: v for k, v in before.items() if k[0] != key}
    # a second message that fails verification changes nothing
    _i, symbol, pom = again[1].units[0]
    bad = orc.DispersalMessage(
        tree.commitment, ((0, bytes(len(symbol)), pom),) + again[1].units[1:], again[1].assigned
    )
    held = nodes[1].units(key), nodes[1].assigned[key]
    assert orc.node_on_dispersal(nodes[1], bad) is None
    assert (nodes[1].units(key), nodes[1].assigned[key]) == held
    assert_matches_reference(monkeypatch, nodes)


def test_one_commitment_is_served_without_reading_the_others():
    nodes = interleaved_nodes(5, stored=NoScan)
    block, tree, _messages = history()[9]
    commitment, key = tree.commitment, key_of(9)
    chain = orc.TrustedChain(N_NODES, 0.375, 0.5)
    votes = [orc.Vote(n.node_id, key) for n in nodes if n.behavior is not Behavior.SILENT]
    assert orc.chain_submit_votes(chain, commitment, votes).committed
    for node in nodes:
        orc.node_on_retrieval(node, key)
    result = orc.client_retrieve(chain, nodes, commitment, commitment.params)
    assert isinstance(result, rt.Block) and result.data == block
    rng = np.random.default_rng(0)
    d = design(9)
    outcomes = [orc.audit(chain, nodes, commitment, 1.0, rng, d) for _ in range(30)]
    assert {o.passed for o in outcomes} == {True, False}
    assert orc.bad_code_round(nodes, commitment, SPURIOUS, chain) == commitment.params.code_seed


def test_a_bad_code_round_pools_without_reading_the_others(small_block):
    params, tree, nodes = test_oracle.TestBadCodeRound().bad_network(small_block)
    for node, (_block, _tree, messages) in zip(nodes, history()):
        node.stored = NoScan(node.stored)
        orc.node_on_dispersal(node, messages[node.node_id])  # another commitment
    chain = orc.TrustedChain(4, 0.25, 0.5)
    with pytest.raises(BadCode) as err:
        orc.client_retrieve(chain, nodes, tree.commitment, params)
    assert orc.bad_code_round(nodes, tree.commitment, err.value, chain) > params.code_seed


def test_a_scenario_reads_no_stored_history(monkeypatch):
    config = test_simnet.make_config(
        {"silent": 2, "withhold_after_vote": 2, "vote_without_store": 1}, rounds=3, audit=1.0
    )
    plain = sn.run_scenario(config)
    monkeypatch.setattr(
        sn,
        "OracleNode",
        lambda node_id, behavior: orc.OracleNode(node_id, behavior, stored=NoScan()),
    )
    assert sn.run_scenario(config).to_json() == plain.to_json()
