"""Whole rounds against the reference round: ``simnet.run_scenario`` on
small drawn scenarios gives the trace ``reference_round.replay`` gives,
round by round, and meets the same results and bad codes."""

import json
import math
from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_round
from daoracle import oracle as orc
from daoracle import simnet as sn
from daoracle.cit import TreeParams
from daoracle.dispersal import DispersalParams
from daoracle.errors import BadCode
from daoracle.retrieval import Block, Fraud
from daoracle.serialize import encode_fraud_proof

from hostile import memory_bound, time_bound
from test_simnet import SHORT_SEED, STALL_SEED, planted_config

BEHAVIORS = ("silent", "withhold_after_vote", "vote_without_store")


@st.composite
def scenarios(draw):
    """Up to 24 nodes over a base layer of 8 to 128 chunks, up to 2 rounds,
    any proposer strategy, non-honest nodes within beta * N; or the planted
    bad code of ``test_simnet`` under one of its searched seeds."""
    if draw(st.integers(0, 4)) == 0:
        return replace(
            planted_config(draw(st.sampled_from((STALL_SEED, SHORT_SEED)))),
            n_clients=draw(st.integers(1, 3)),
            rounds=draw(st.integers(1, 2)),
        )
    n_sys = draw(st.sampled_from((2, 4, 8, 16, 32)))
    symbol_size = draw(st.sampled_from((4, 16, 32)))
    tree = TreeParams(
        symbol_size=symbol_size, root_size=4, rate=Fraction(1, 4), batch=8, max_eq_degree=8,
        alpha=0.125, code_seed=draw(st.integers(0, 7)), gate_trials=draw(st.sampled_from((0, 8))),
    )
    m = 4 * n_sys
    n_nodes = draw(st.integers(1, 24))
    k = draw(st.integers(math.ceil(m / n_nodes), 2 * math.ceil(m / n_nodes)))
    beta = draw(st.sampled_from((0.0, 0.2, 0.34)))
    counts, left = {}, int(beta * n_nodes)
    for name in BEHAVIORS:
        counts[name] = draw(st.integers(0, left))
        left -= counts[name]
    return sn.ScenarioConfig(
        n_nodes=n_nodes,
        beta=beta,
        tree=tree,
        dispersal=DispersalParams(
            gamma=draw(st.sampled_from((0.3, 0.5, 0.7))), eta=0.875, lam=m / (n_nodes * k)
        ),
        block_size=draw(st.integers((n_sys - 1) * symbol_size + 1, n_sys * symbol_size)),
        behaviors=sn.behaviors_from_counts(n_nodes, counts, draw(st.none() | st.integers(0, 9))),
        n_clients=draw(st.integers(1, 3)),
        proposer_strategy=draw(st.sampled_from(sn.PROPOSER_STRATEGIES)),
        rounds=draw(st.integers(0, 2)),
        audit_probability=draw(st.sampled_from((0.0, 0.5, 1.0))),
        master_seed=draw(st.integers(0, 1 << 16)),
    )


def _met(outcome):
    """What a client met, in comparable form."""
    if isinstance(outcome, BadCode):
        return ("bad code", outcome.layer, outcome.layer_size, outcome.unknown)
    if isinstance(outcome, Block):
        return ("block", outcome.data)
    if isinstance(outcome, Fraud):
        return ("fraud", encode_fraud_proof(outcome.proof))
    return ("insufficient", outcome.known_fractions)


def both(config):
    """(package, reference): each one's trace payload less its config, its
    recorded fraud proofs encoded, and what each client met."""
    met, retrieve = [], orc.client_retrieve

    def spy(*args):
        try:
            result = retrieve(*args)
        except BadCode as signal:
            met.append(_met(signal))
            raise
        met.append(_met(result))
        return result

    orc.client_retrieve = spy
    try:
        trace = sn.run_scenario(config)
    finally:
        orc.client_retrieve = retrieve
    payload = json.loads(trace.to_json())
    del payload["config"]
    got = payload, [encode_fraud_proof(p) for p in trace.fraud_records], met

    payload, frauds, met = reference_round.replay(config)
    # through json, as the trace goes
    want = (
        json.loads(json.dumps(payload)),
        [encode_fraud_proof(p) for p in frauds],
        [_met(outcome) for _round, _client, outcome in met],
    )
    return got, want


def small(strategy="honest", counts=None, audit=0.0, gamma=0.5, seed=0):
    """20 nodes, each given 4 of 64 chunks of 32 bytes, for 3 clients over
    2 rounds, beta 0.25."""
    tree = TreeParams(
        symbol_size=32, root_size=4, rate=Fraction(1, 4), batch=8, max_eq_degree=8,
        alpha=0.125, code_seed=5, gate_trials=8,
    )
    return sn.ScenarioConfig(
        n_nodes=20, beta=0.25, tree=tree,
        dispersal=DispersalParams(gamma=gamma, eta=0.875, lam=0.8),
        block_size=500, behaviors=sn.behaviors_from_counts(20, counts or {}),
        n_clients=3, proposer_strategy=strategy, rounds=2, audit_probability=audit,
        master_seed=seed,
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
# a stall on the planted stopping set, met by three clients, then a round
# under the agreed code seed; too few chunks for the planted code
@example(replace(planted_config(STALL_SEED), n_clients=3, rounds=2))
@example(planted_config(SHORT_SEED))
# audits that pass and one that slashes a vote without store (round 1)
@example(small(counts={"withhold_after_vote": 3, "vote_without_store": 2}, audit=1.0))
@example(small("invalid_coding", counts={"silent": 2, "withhold_after_vote": 3}))
# gamma 0.3: the 10 nodes that verify and a vote without store commit
@example(small("equivocating", counts={"vote_without_store": 1}, gamma=0.3))
def test_rounds_match_the_reference_round(config):
    got, want = memory_bound(_bounded, config)
    assert got == want


def _bounded(config):
    # run in memory_bound's child; a runaway case fails there
    with time_bound(20):
        return both(config)
