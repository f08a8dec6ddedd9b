"""Scenario runs: determinism, safety sweep, counters vs closed forms."""

import dataclasses
import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daoracle import metrics as mx
from daoracle import oracle as orc
from daoracle import simnet as sn
from daoracle.cit import MAX_CODE_ATTEMPTS, MAX_GATE_TRIALS, TreeParams
from daoracle.dispersal import MAX_DESIGN_SLOTS, DispersalParams, assign_chunks
from daoracle.errors import ParameterError
from daoracle.serialize import encode_commitment, encode_pom
from daoracle.util import derive_seed

from conftest import BAD_BASE_CODE_SEED, BAD_BASE_STOPPING_SET, SMALL, voted_commitments

TREE_64K = TreeParams(
    symbol_size=2048,
    root_size=4,
    rate=Fraction(1, 4),
    batch=8,
    max_eq_degree=8,
    alpha=0.125,
    code_seed=11,
    gate_trials=24,
)
DISP = DispersalParams(gamma=0.5, eta=0.875, lam=0.2)


def make_config(counts=None, strategy="honest", rounds=1, seed=7, block_size=65536,
                n_clients=3, audit=0.0, tree=TREE_64K, disp=DISP, n_nodes=20,
                beta=0.25):
    return sn.ScenarioConfig(
        n_nodes=n_nodes,
        beta=beta,
        tree=tree,
        dispersal=disp,
        block_size=block_size,
        behaviors=sn.behaviors_from_counts(n_nodes, counts or {}),
        n_clients=n_clients,
        proposer_strategy=strategy,
        rounds=rounds,
        audit_probability=audit,
        master_seed=seed,
    )


# the required keys but n_nodes of a scenario with 8 base chunks, 1-byte
# symbols and lambda 1, so that any node count dividing 8 gives a design
TINY_SCENARIO = {
    "beta": 0.5, "block_size": 2,
    "tree": {
        "symbol_size": 1, "root_size": 4, "rate": "1/4", "batch": 8,
        "max_eq_degree": 8, "alpha": 0.125,
    },
    "dispersal": {"gamma": 0.5, "eta": 0.875, "lambda": 1.0},
}


def optional_keys(data, cls, strategies: dict) -> dict:
    """Each key of ``strategies`` left out, or drawn from its strategy with
    any value but the default of the ``cls`` field of that name."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    out = {}
    for key, values in strategies.items():
        if data.draw(st.booleans(), label=f"set {key}"):
            out[key] = data.draw(values.filter(lambda v, d=defaults.get(key): v != d), label=key)
    return out


class TestDeterminism:
    def test_identical_config_identical_trace(self):
        config = make_config({"silent": 4}, rounds=2)
        a = sn.run_scenario(config).to_json()
        b = sn.run_scenario(config).to_json()
        assert a == b

    def test_config_json_round_trip(self):
        config = make_config({"withhold_after_vote": 2})
        again = sn.config_from_dict(json.loads(sn.config_to_json(config)))
        assert again == config

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_optional_key_round_trips_or_takes_its_default(self, data):
        n_nodes = data.draw(st.sampled_from([1, 2, 4, 8]), label="n_nodes")
        names = [b.value for b in orc.Behavior]
        behaviors = optional_keys(data, sn.ScenarioConfig, {
            "behaviors": st.one_of(
                st.lists(st.sampled_from(names), min_size=n_nodes, max_size=n_nodes)
                .filter(lambda bs: sum(b != "honest" for b in bs) <= n_nodes // 2),
                st.dictionaries(st.sampled_from(names), st.integers(0, n_nodes // 2), max_size=1),
            ),
            "behavior_seed": st.integers(0, 2**32),
        })
        scenario = optional_keys(data, sn.ScenarioConfig, {
            "n_clients": st.integers(1, sn.MAX_CLIENTS),
            "proposer_strategy": st.sampled_from(sn.PROPOSER_STRATEGIES),
            "rounds": st.integers(0, sn.MAX_ROUNDS),
            "audit_probability": st.floats(0, 1),
            "master_seed": st.integers(0, 2**64 - 1),
        })
        tree = optional_keys(data, TreeParams, {
            "code_seed": st.integers(0, 2**32),
            "gate_trials": st.integers(0, MAX_GATE_TRIALS),
            "max_code_attempts": st.integers(0, MAX_CODE_ATTEMPTS),
        })
        required = {**TINY_SCENARIO, "n_nodes": n_nodes}
        config = sn.config_from_dict(
            {**required, **behaviors, **scenario, "tree": {**required["tree"], **tree}}
        )
        assert sn.config_from_dict(json.loads(sn.config_to_json(config))) == config
        if isinstance(behaviors.get("behaviors"), list):
            assert config.behaviors == tuple(map(orc.Behavior, behaviors["behaviors"]))
        # without its optional keys, a scenario takes the dataclass defaults
        plain = sn.config_from_dict(required)
        assert plain == sn.ScenarioConfig(
            n_nodes=n_nodes, beta=0.5, tree=TreeParams(**required["tree"]),
            dispersal=DispersalParams(0.5, 0.875, 1.0), block_size=2,
            behaviors=(orc.Behavior.HONEST,) * n_nodes,
        )
        assert config == dataclasses.replace(
            plain, **scenario, tree=dataclasses.replace(plain.tree, **tree),
            behaviors=config.behaviors,
        )

    def test_config_rejects_too_many_adversaries(self):
        with pytest.raises(ParameterError):
            make_config({"silent": 6})  # beta*N = 5

    def test_config_takes_beta_as_the_decimal_it_was_written_as(self):
        # 0.29 * 100 is 28.999999999999996 in floats; beta*N is 29 nodes
        tree = TreeParams(
            symbol_size=1, root_size=4, rate="1/4", batch=8, max_eq_degree=8, alpha=0.125
        )
        sizes = dict(
            n_nodes=100, beta=0.29, tree=tree, block_size=128,
            disp=DispersalParams(0.5, 0.875, 0.64),
        )
        config = make_config({"silent": 29}, **sizes)
        assert config.behaviors.count(orc.Behavior.SILENT) == 29
        with pytest.raises(ParameterError, match=r"30 non-honest nodes exceeds beta\*N = 29$"):
            make_config({"silent": 30}, **sizes)

    def test_config_rejects_non_integral_chunks_per_node(self):
        with pytest.raises(ParameterError):
            make_config(disp=DispersalParams(gamma=0.5, eta=0.875, lam=0.21))

    def test_config_rejects_a_design_past_the_slot_cap(self):
        # one node and lambda 2**-20 over 128 chunks: k = 2**27 chunks per
        # node, a 1 GiB design, refused before anything is built
        disp = DispersalParams(gamma=0.5, eta=0.875, lam=2.0**-20)
        with pytest.raises(ParameterError, match="exceeds the cap"):
            make_config(disp=disp, n_nodes=1)
        # the largest lambda-side design the cap admits on this block
        lam = 128 / MAX_DESIGN_SLOTS
        assert make_config(disp=dataclasses.replace(disp, lam=lam), n_nodes=1)

    def test_config_rejects_a_run_past_either_round_cap(self):
        # the nodes keep every round's units until the run ends, so the
        # config bounds the rounds and the bytes they propose
        raw = json.loads(sn.config_to_json(make_config()))
        most = sn.MAX_PROPOSED_BYTES // raw["block_size"]
        assert sn.config_from_dict({**raw, "rounds": most}).rounds == most
        for rounds in (sn.MAX_ROUNDS + 1, most + 1):
            with pytest.raises(ParameterError, match="rounds must be at most"):
                sn.config_from_dict({**raw, "rounds": rounds})


class TestSafetySweep:
    # The security conditions hold for every configuration here:
    # beta <= (1-gamma)/2, gamma/lam = 2.5 > ln 8, eta = 1 - alpha.
    @pytest.mark.parametrize(
        "counts",
        [
            {},
            {"silent": 5},
            {"withhold_after_vote": 5},
            {"vote_without_store": 5},
            {"silent": 2, "withhold_after_vote": 2, "vote_without_store": 1},
        ],
        ids=["honest", "silent", "withhold", "freeride", "mixed"],
    )
    @pytest.mark.parametrize("strategy", ["honest", "invalid_coding"])
    def test_no_safety_violation(self, counts, strategy):
        trace = sn.run_scenario(make_config(counts, strategy=strategy))
        round0 = trace.rounds[0]
        # Termination: honest fraction >= beta+gamma, so a commit appears
        assert round0["committed"]
        outcomes = {r["outcome"] for r in round0["retrievals"]}
        if strategy == "honest":
            # Availability + Correctness: every client gets the block back
            assert outcomes == {"block"}
            assert all(r["matches_proposal"] for r in round0["retrievals"])
            digests = {r["sha256"] for r in round0["retrievals"]}
            assert len(digests) == 1
        else:
            # Correctness case (2): all honest clients emit the null block
            # plus a fraud proof the chain accepted
            assert outcomes == {"fraud"}
            assert any(line.startswith("FRAUD") for line in trace.chain_lines)

    def test_equivocation_dies_below_threshold(self):
        trace = sn.run_scenario(make_config({}, strategy="equivocating"))
        round0 = trace.rounds[0]
        assert not round0["committed"]
        assert round0["votes"] == 10  # only the consistent half verified
        assert {r["outcome"] for r in round0["retrievals"]} == {"none"}

    def test_termination_needs_gamma_within_honest_slack(self):
        # necessity probe: gamma > 1 - 2*beta starves the vote threshold
        disp = DispersalParams(gamma=0.8, eta=0.875, lam=0.2)
        trace = sn.run_scenario(make_config({"silent": 5}, disp=disp))
        assert not trace.rounds[0]["committed"]

    def test_audit_slashes_freeriders(self):
        trace = sn.run_scenario(
            make_config({"vote_without_store": 5}, rounds=4, audit=1.0)
        )
        audits = [r["audit"] for r in trace.rounds if r["audit"]]
        assert audits, "audit with p=1 must fire every committed round"
        assert any(not a["passed"] for a in audits) or all(
            a["node"] < 15 for a in audits
        )


# the SMALL tree with its ungated base code whose stopping set is
# {0, 3, 4, 5}, dispersed as 16 chunk draws to each of 4 honest nodes;
# master seeds found by search over the round-0 design: STALL_SEED's assigns
# every coded base chunk except exactly the stopping set, SHORT_SEED's
# leaves too few for the peel to pass 1 - alpha
PLANTED = TreeParams(**{**SMALL, "code_seed": BAD_BASE_CODE_SEED, "gate_trials": 0})
STALL_SEED = 109008
SHORT_SEED = 2230


def planted_config(seed):
    return make_config(
        seed=seed, block_size=512, n_clients=1, tree=PLANTED, n_nodes=4,
        disp=DispersalParams(gamma=0.5, eta=0.875, lam=0.5),
    )


class TestStalledRetrieval:
    def test_a_stall_on_the_stopping_set_runs_the_bad_code_round(self):
        design = assign_chunks(32, 4, 0.5, seed=derive_seed("design", STALL_SEED, 0))
        unassigned = set(range(32)) - set(design.assignments.ravel().tolist())
        assert unassigned == set(BAD_BASE_STOPPING_SET)
        trace = sn.run_scenario(planted_config(STALL_SEED))
        entry = {"client": 0, "outcome": "bad_code", "new_seed": BAD_BASE_CODE_SEED + 1}
        assert trace.rounds[0]["retrievals"] == [entry]
        assert trace.ledgers[0] == [{"round": 0, **entry}]
        # pooling every node's storage confirms the stall, and the chain
        # records the replacement seed
        commit, badcode = trace.chain_lines
        assert commit.startswith("COMMIT") and badcode.startswith("BADCODE")
        assert badcode.endswith(f"size=32 seed={BAD_BASE_CODE_SEED}->{BAD_BASE_CODE_SEED + 1}")

    def test_every_client_confirms_the_stall_and_the_chain_records_it_once(self, monkeypatch):
        calls = {"reconstruct": 0, "layer_code": 0}
        for name in calls:

            def spy(*args, _name=name, _original=getattr(orc, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(orc, name, spy)
        config = dataclasses.replace(planted_config(STALL_SEED), n_clients=3)
        trace = sn.run_scenario(config)
        # the first client's bad-code round pools storage and searches for
        # the seed once; the others read the agreed seed from its record
        assert calls == {"reconstruct": 3 + 1, "layer_code": 1}
        for client in range(3):
            entry = {"client": client, "outcome": "bad_code", "new_seed": BAD_BASE_CODE_SEED + 1}
            assert trace.rounds[0]["retrievals"][client] == entry
            assert trace.ledgers[client] == [{"round": 0, **entry}]
        commit, badcode = trace.chain_lines
        assert commit.startswith("COMMIT")
        assert badcode.startswith("BADCODE")
        assert badcode.endswith(f"size=32 seed={BAD_BASE_CODE_SEED}->{BAD_BASE_CODE_SEED + 1}")

    def test_the_rounds_after_a_confirmed_stall_use_the_agreed_code_seed(self, monkeypatch):
        commitments = voted_commitments(monkeypatch)
        trace = sn.run_scenario(dataclasses.replace(planted_config(STALL_SEED), rounds=2))
        assert [c.params.code_seed for c in commitments] == [
            BAD_BASE_CODE_SEED, BAD_BASE_CODE_SEED + 1,
        ]
        assert trace.rounds[1]["committed"]

    def test_a_stall_below_one_minus_alpha_is_insufficient(self):
        trace = sn.run_scenario(planted_config(SHORT_SEED))
        (entry,) = trace.rounds[0]["retrievals"]
        assert entry["outcome"] == "insufficient"
        assert dict(entry["fractions"])[3] < 1 - PLANTED.alpha
        assert trace.ledgers[0] == [{"round": 0, **entry}]
        assert [line.split()[0] for line in trace.chain_lines] == ["COMMIT"]


class TestMeasure:
    def test_empty_scenario_measures_zero(self):
        trace = sn.run_scenario(make_config(rounds=0))
        assert trace.bytes_sent == 0
        assert sum(trace.bytes_stored.values()) == 0
        assert sum(trace.bytes_downloaded.values()) == 0

    def test_all_honest_run_tracks_the_closed_form(self):
        trace = sn.run_scenario(make_config())
        cost = mx.CostParams(
            block_size=65536,
            n_nodes=20,
            symbol_size=2048,
            root_size=4,
            rate=0.25,
            batch=8,
            max_eq_degree=8,
            lam=0.2,
        )
        formula = mx.communication_cost(cost)
        # the wire format is leaner than the formula's per-level accounting
        # (see decisions ledger); it must never exceed it by more than the
        # encoding overhead
        assert trace.bytes_sent <= 1.10 * formula
        assert trace.bytes_sent >= 0.55 * formula

    def test_doubling_block_roughly_doubles_communication(self):
        small = sn.run_scenario(make_config(block_size=65536))
        big = sn.run_scenario(make_config(block_size=131072))
        ratio = big.bytes_sent / small.bytes_sent
        assert 1.7 <= ratio <= 2.3

    def test_storage_and_download_populated(self):
        trace = sn.run_scenario(make_config())
        assert all(b > 0 for b in trace.bytes_stored.values())
        assert all(b > 0 for b in trace.bytes_downloaded.values())
        # every client downloads the same distinct-unit pool
        assert len(set(trace.bytes_downloaded.values())) == 1


def test_trace_json_shape():
    trace = sn.run_scenario(make_config({"silent": 1}, rounds=2))
    payload = json.loads(trace.to_json())
    assert set(payload) == {"chain", "config", "counters", "ledgers", "rounds"}
    assert len(payload["rounds"]) == 2
    assert set(payload["counters"]) == {"bytes_sent", "bytes_stored", "bytes_downloaded"}
    assert len(payload["counters"]["bytes_stored"]) == 20


def test_a_trace_keeps_no_client_result():
    # each client's result is its own reconstructed copy of the block; the
    # trace keeps none of them, only their outcome entries, so what it
    # holds does not grow with the clients
    config = make_config(n_clients=8)
    sn.run_scenario(dataclasses.replace(config, n_clients=1))  # codes cached
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = sn.run_scenario(config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2 * config.block_size


def test_a_behavior_seed_draws_the_same_roles_on_every_run():
    raw = json.loads(sn.config_to_json(make_config()))
    raw["behaviors"] = {"silent": 2, "withhold_after_vote": 3}
    unseeded = sn.config_from_dict(raw).behaviors
    seeded = [sn.config_from_dict({**raw, "behavior_seed": 4}).behaviors for _ in range(2)]
    assert seeded[0] == seeded[1] != unseeded
    assert Counter(seeded[0]) == Counter(unseeded)
    # unseeded, the highest ids take the roles
    assert set(unseeded[15:]) == {orc.Behavior.SILENT, orc.Behavior.WITHHOLD_AFTER_VOTE}


# sha256 of trace.json as `python3 -m daoracle simulate` writes it for the
# shipped scenarios and the inline ones below; any change to encodings,
# sampling, peeling order, storage accounting or the trace layout moves these
TRACE_DIGESTS = {
    "all_honest": "42716e1345ae9c941cebeba9788207b727c0112d2acd5003cf4177eb592f5590",
    "equivocating": "d7904760af2a94bbcd2962b4deb1f9f73fe8d9f435633b30980d35c60d3d1c25",
    "invalid_coding": "c27b7b0682a805ab225ceb408d47a9f3fcafd4cb6dca7bd1fac9b62a4b7e6646",
    "planted_stall": "ab2812b7320eb6f5809530197c520fb86c46ad11fb04a0675f04d1cdc880b182",
    "stored_history": "11404e9e2f2d0b0f67bc025bae38f28d2be4c0052487e9994a7801c64ed8dbc9",
    "repeated_commitment": "890f519b2138b7c525981c3505e338b65f64de8584fef0e0f8834911627df262",
}


SCENARIOS = Path(__file__).parents[1] / "scenarios"


def _scenario(name) -> dict:
    if name == "stored_history":
        # six rounds of stored units piling up on every kind of node, each
        # round audited; the vote-without-store node is slashed in round 0
        raw = json.loads((SCENARIOS / "all_honest.json").read_text())
        raw.update(
            rounds=6,
            audit_probability=1.0,
            behaviors={"silent": 2, "withhold_after_vote": 2, "vote_without_store": 1},
        )
        return raw
    if name == "equivocating":
        # two rounds that each get 10 votes and never commit
        raw = json.loads((SCENARIOS / "all_honest.json").read_text())
        raw.update(
            proposer_strategy="equivocating",
            behaviors={"vote_without_store": 1, "silent": 1},
        )
        return raw
    if name == "planted_stall":
        # three clients each meet the bad code in round 0; round 1 commits
        # under the agreed code seed
        config = dataclasses.replace(planted_config(STALL_SEED), n_clients=3, rounds=2)
        return json.loads(sn.config_to_json(config))
    if name == "repeated_commitment":
        # 2-byte blocks: round 102 proposes the block of round 41, so the
        # nodes take a second message, with another assignment, for one key
        return {
            "n_nodes": 4, "beta": 0.25, "block_size": 2, "n_clients": 1, "rounds": 120,
            "master_seed": 9, "audit_probability": 1.0,
            "behaviors": {"vote_without_store": 1},
            "tree": {
                "symbol_size": 1, "root_size": 4, "rate": "1/4", "batch": 8,
                "max_eq_degree": 8, "alpha": 0.125, "code_seed": 5,
            },
            "dispersal": {"gamma": 0.5, "eta": 0.875, "lambda": 1.0},
        }
    return json.loads((SCENARIOS / f"{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_scenario_trace_bytes_are_pinned(name):
    trace = sn.run_scenario(sn.config_from_dict(_scenario(name)))
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == TRACE_DIGESTS[name]


def _unit_bytes(units) -> int:
    return sum(8 + len(encode_pom(pom)) for _idx, _symbol, pom in units)


@pytest.mark.parametrize(
    "config",
    [
        make_config({"silent": 2, "vote_without_store": 1}, rounds=2),
        make_config({"withhold_after_vote": 2}, strategy="invalid_coding", rounds=2),
        # gamma 0.3: the 10 nodes that verify and the one that votes
        # without storing reach the 11 votes that commit
        make_config({"vote_without_store": 1}, strategy="equivocating", rounds=2,
                    disp=dataclasses.replace(DISP, gamma=0.3)),
        sn.config_from_dict(_scenario("repeated_commitment")),
    ],
    ids=["honest", "invalid_coding", "equivocating", "repeated_commitment"],
)
def test_counters_equal_the_encoded_size_of_every_unit(monkeypatch, config):
    """The trace's byte counters against encoding every unit the round moves:
    what ``_propose`` sends, what each node holds at the end, and what each
    client's ``gather_units`` returned in each committed round."""
    sent, gathered, nodes = [], [], {}
    propose, gather, on_dispersal = sn._propose, orc.gather_units, orc.node_on_dispersal

    def spy_propose(*args):
        out = propose(*args)
        sent.append(out[2])
        gathered.append([])
        return out

    def spy_gather(*args):
        units = gather(*args)
        gathered[-1].append(units)
        return units

    def spy_on_dispersal(node, message):
        nodes[node.node_id] = node
        return on_dispersal(node, message)

    monkeypatch.setattr(sn, "_propose", spy_propose)
    monkeypatch.setattr(orc, "gather_units", spy_gather)
    monkeypatch.setattr(orc, "node_on_dispersal", spy_on_dispersal)
    trace = sn.run_scenario(config)

    assert trace.bytes_sent == sum(
        len(encode_commitment(msg.commitment)) + _unit_bytes(msg.units)
        for messages in sent for msg in messages.values()
    )
    assert trace.bytes_stored == {
        node_id: _unit_bytes(node.stored.values())
        for node_id, node in nodes.items()
    }
    downloaded = 0
    for summary, calls in zip(trace.rounds, gathered):
        if summary["committed"]:
            # every client's gather of a round returns the same units
            assert calls and all(units == calls[0] for units in calls)
            downloaded += _unit_bytes(calls[0])
        else:
            assert calls == []
    assert trace.bytes_downloaded == dict.fromkeys(range(config.n_clients), downloaded)
    assert downloaded > 0
