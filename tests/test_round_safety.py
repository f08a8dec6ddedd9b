"""ACeD's safety claims as properties of drawn rounds, whatever the nodes
and the proposer do: ``simnet.run_scenario`` on the scenarios that
``test_reference_round.scenarios`` draws, under every proposer strategy
(``honest``, ``invalid_coding`` and ``equivocating``), and with the planted
bad code of ``test_simnet``. The ``invalid_coding`` proposer's tamper is
drawn too: a mask from 1 to 255 XORed into the first byte of any symbol of
any layer.

Always, in every round:

- a returned ``Block`` is the block the proposer drew;
- an honest proposer is never convicted: no client gets a ``Fraud`` and
  the chain holds no FRAUD line;
- every ``Fraud`` a client gets verifies against its commitment, in memory
  and after a DAF3 encode and decode, and the chain holds its FRAUD line;
- all clients of one round meet the same kind of outcome;
- a commitment gets at most one BADCODE line.

The conditions under which a round must also commit and every client get
the block back (ACeD's termination and availability) are not asserted
here.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from daoracle import cit, oracle as orc
from daoracle import simnet as sn
from daoracle.errors import BadCode
from daoracle.retrieval import Block, Fraud, verify_fraud_proof
from daoracle.serialize import decode_fraud_proof, encode_fraud_proof
from daoracle.util import derive_seed

from conftest import flipping
from hostile import time_bound
from test_reference_round import scenarios

DRAWS = 200
BOUND_S = 30
# (layer, index, mask) of the invalid_coding proposer's tamper: the layer
# and the index are taken modulo the tree's layer count and layer size
TAMPERS = st.tuples(st.integers(0, 7), st.integers(0, 127), st.integers(1, 255))


def proposal(config, round_no: int) -> bytes:
    """The block the proposer of round ``round_no`` draws (``simnet``'s
    "block" stream)."""
    rng = np.random.default_rng(np.uint64(derive_seed("block", config.master_seed, round_no)))
    return rng.bytes(config.block_size)


def played(config, tamper):
    """The trace of ``config`` with the ``invalid_coding`` proposer's
    tamper drawn as ``tamper``, and (commitment, result or caught BadCode)
    for each ``client_retrieve`` call, in call order: round by round, each
    committed round's clients in order."""
    calls, retrieve, propose = [], orc.client_retrieve, orc.build_tree_with_base_corruption
    layer, index, mask = tamper

    def tampered(block, params, xor_mask):  # the drawn mask replaces xor_mask
        depth = cit.geometry(params, len(block)).depth
        return cit.build_tree(block, params, flipping({layer % (depth + 1): [(index, mask)]}))

    def spy(chain, nodes, commitment, params):
        try:
            result = retrieve(chain, nodes, commitment, params)
        except BadCode as signal:
            calls.append((commitment, signal))
            raise
        calls.append((commitment, result))
        return result

    orc.client_retrieve, orc.build_tree_with_base_corruption = spy, tampered
    try:
        return sn.run_scenario(config), calls
    finally:
        orc.client_retrieve, orc.build_tree_with_base_corruption = retrieve, propose


def check_round_safety(config, tamper) -> None:
    trace, calls = played(config, tamper)
    lines = trace.chain_lines
    badcodes = Counter(line.split()[1] for line in lines if line.startswith("BADCODE"))
    assert all(count == 1 for count in badcodes.values()), lines
    if config.proposer_strategy == "honest":
        assert not any(line.startswith("FRAUD") for line in lines), lines

    met = iter(calls)
    for entry in trace.rounds:
        kinds = {retrieval["outcome"] for retrieval in entry["retrievals"]}
        assert len(kinds) == 1, entry
        if not entry["committed"]:
            continue
        for _client in range(config.n_clients):
            commitment, outcome = next(met)
            if isinstance(outcome, Block):
                assert outcome.data == proposal(config, entry["round"])
            elif isinstance(outcome, Fraud):
                assert config.proposer_strategy != "honest"
                proof = outcome.proof
                assert verify_fraud_proof(commitment, commitment.params, proof)
                decoded = decode_fraud_proof(encode_fraud_proof(proof))
                assert verify_fraud_proof(commitment, commitment.params, decoded)
                line = f"FRAUD key={entry['key']} layer={proof.layer} eq={proof.equation_no}"
                assert line in lines
    assert next(met, None) is None


def test_drawn_rounds_keep_the_safety_properties():
    """At least ``DRAWS`` drawn scenarios, all within ``BOUND_S``."""
    checked = []

    @settings(max_examples=DRAWS, deadline=None)
    @given(scenarios(), TAMPERS)
    def check(config, tamper):
        check_round_safety(config, tamper)
        checked.append(config.proposer_strategy)

    with time_bound(BOUND_S):
        check()
    assert len(checked) >= DRAWS
    assert set(checked) == set(sn.PROPOSER_STRATEGIES)
