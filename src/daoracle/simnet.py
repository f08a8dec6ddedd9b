"""Deterministic synchronous-round network hosting clients, oracle nodes
and the trusted-chain mock.

Each round runs propose -> disperse -> vote -> commit -> retrieve -> audit
with reliable in-round delivery. One master seed drives everything through
per-purpose derived streams (labels like "design"/round), so adding a new
consumer never perturbs existing behavior and a config replays to a
byte-identical trace.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import oracle as orc
from .cit import TreeParams, geometry, sample_pom
from .dispersal import DispersalParams, assign_chunks, chunks_per_node
from .errors import BadCode, ParameterError
from .oracle import Behavior, OracleNode, TrustedChain
from .retrieval import Block, Fraud
from .serialize import encode_commitment, encode_pom
from .util import NUMBER, RATE, as_written, derive_seed, json_fields, sha256

PROPOSER_STRATEGIES = ("honest", "invalid_coding", "equivocating")
# caps on values a scenario sets, checked before they size the behavior
# list, the node table, the client ledgers or a proposed block
MAX_NODES, MAX_BLOCK_SIZE = 1 << 14, 1 << 24
MAX_CLIENTS = 1 << 10
# nodes keep each round's units to the end of the run
MAX_ROUNDS, MAX_PROPOSED_BYTES = 1 << 10, 1 << 25


def _check_sizes(values) -> None:
    """Check each of n_nodes, n_clients and block_size that the mapping
    ``values`` holds against its cap."""
    caps = {"n_nodes": MAX_NODES, "n_clients": MAX_CLIENTS, "block_size": MAX_BLOCK_SIZE}
    for key, cap in caps.items():
        if key in values and not 1 <= values[key] <= cap:
            raise ParameterError(f"{key} must lie in [1, {cap}], got {values[key]}")


@dataclass(frozen=True)
class ScenarioConfig:
    n_nodes: int
    beta: float
    tree: TreeParams
    dispersal: DispersalParams
    block_size: int
    behaviors: tuple[Behavior, ...]
    n_clients: int = 3
    proposer_strategy: str = "honest"
    rounds: int = 1
    audit_probability: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        _check_sizes(vars(self))
        if len(self.behaviors) != self.n_nodes:
            raise ParameterError("behaviors must list one entry per node")
        # json reads NaN and Infinity, which no comparison admits
        if not 0 <= self.beta <= 1:
            raise ParameterError(f"beta must lie in [0, 1], got {self.beta}")
        bad = sum(1 for b in self.behaviors if b is not Behavior.HONEST)
        limit = as_written(self.beta) * self.n_nodes
        if bad > limit:
            raise ParameterError(f"{bad} non-honest nodes exceeds beta*N = {float(limit):g}")
        if self.proposer_strategy not in PROPOSER_STRATEGIES:
            raise ParameterError(f"unknown proposer strategy {self.proposer_strategy!r}")
        if self.rounds < 0:
            raise ParameterError("rounds must be >= 0")
        if self.rounds > MAX_ROUNDS or self.rounds * self.block_size > MAX_PROPOSED_BYTES:
            raise ParameterError(
                f"rounds must be at most {MAX_ROUNDS} and rounds * block_size at most "
                f"{MAX_PROPOSED_BYTES}, got {self.rounds} x {self.block_size}"
            )
        if not 0 <= self.audit_probability <= 1:
            raise ParameterError("audit_probability must lie in [0, 1]")
        # the design's checks, including its slot cap, before any round
        # builds a tree or draws a design
        n_chunks = geometry(self.tree, self.block_size).sizes[-1]
        try:
            chunks_per_node(n_chunks, self.n_nodes, self.dispersal.lam)
        except ParameterError as exc:
            raise ParameterError(f"dispersal: {exc}") from None


def _behavior(name) -> Behavior:
    try:
        return Behavior(name)
    except ValueError:
        raise ParameterError(f"unknown behavior {name!r}") from None


def behaviors_from_counts(
    n_nodes: int, counts: dict, seed: Optional[int] = None
) -> tuple[Behavior, ...]:
    """Expand {"silent": 3, ...} counts; ids are sampled by seed when given,
    else the highest ids take the non-honest roles."""
    order = []
    # every count must be an int, and one in [0, n_nodes] before it sizes a list
    for name, cnt in sorted(json_fields(counts, {}, dict.fromkeys(counts, int)).items()):
        if not 0 <= cnt <= n_nodes:
            raise ParameterError(f"behaviors: {name!r} count must lie in [0, {n_nodes}], got {cnt}")
        order += [_behavior(name)] * cnt
    if len(order) > n_nodes:
        raise ParameterError("more behavior assignments than nodes")
    out = [Behavior.HONEST] * n_nodes
    if seed is None:
        ids = range(n_nodes - len(order), n_nodes)
    else:
        rng = np.random.default_rng(np.uint64(derive_seed("behaviors", seed)))
        ids = sorted(rng.choice(n_nodes, size=len(order), replace=False).tolist())
    for node_id, behavior in zip(ids, order):
        out[node_id] = behavior
    return tuple(out)


TREE_FIELDS = {
    "symbol_size": int, "root_size": int, "rate": RATE, "batch": int,
    "max_eq_degree": int, "alpha": NUMBER,
}
# left out, each takes its TreeParams default
OPTIONAL_TREE_FIELDS = {"code_seed": int, "gate_trials": int, "max_code_attempts": int}


def tree_params_from_dict(raw) -> TreeParams:
    """TreeParams from a JSON object, as in a scenario's "tree" block or the
    CLI's tree parameter file. Raises ParameterError for a missing key or a
    value of the wrong type."""
    return TreeParams(**json_fields(raw, TREE_FIELDS, OPTIONAL_TREE_FIELDS))


# the optional scenario keys; left out, each takes its ScenarioConfig default
OPTIONAL_SCENARIO_FIELDS = {
    "n_clients": int, "proposer_strategy": str, "rounds": int,
    "audit_probability": NUMBER, "master_seed": int,
}


def config_from_dict(raw) -> ScenarioConfig:
    """ScenarioConfig from a parsed scenario JSON object (FORMATS.md).
    Raises ParameterError for a missing key, a value of the wrong type, or a
    value outside its cap."""
    raw = json_fields(
        raw,
        {"n_nodes": int, "beta": NUMBER, "tree": dict, "dispersal": dict, "block_size": int},
        {"behaviors": (dict, list), "behavior_seed": int, **OPTIONAL_SCENARIO_FIELDS},
    )
    disp = json_fields(raw["dispersal"], {"gamma": NUMBER, "eta": NUMBER, "lambda": NUMBER})
    _check_sizes(raw)
    behaviors = raw.get("behaviors", {})
    if isinstance(behaviors, list):
        assignment = tuple(_behavior(b) for b in behaviors)
    else:
        assignment = behaviors_from_counts(
            raw["n_nodes"], behaviors, raw.get("behavior_seed")
        )
    return ScenarioConfig(
        n_nodes=raw["n_nodes"],
        beta=raw["beta"],
        tree=tree_params_from_dict(raw["tree"]),
        dispersal=DispersalParams(disp["gamma"], disp["eta"], disp["lambda"]),
        block_size=raw["block_size"],
        behaviors=assignment,
        **{key: raw[key] for key in OPTIONAL_SCENARIO_FIELDS if key in raw},
    )


def config_to_json(config: ScenarioConfig) -> str:
    raw = asdict(config)
    raw["tree"]["rate"] = str(config.tree.rate)
    raw["dispersal"]["lambda"] = raw["dispersal"].pop("lam")
    raw["behaviors"] = [b.value for b in config.behaviors]
    return json.dumps(raw, sort_keys=True, indent=2)


@dataclass
class Trace:
    config: str
    rounds: list = field(default_factory=list)
    chain_lines: list = field(default_factory=list)
    ledgers: dict = field(default_factory=dict)  # client -> [per-round outcome]
    bytes_sent: int = 0
    bytes_stored: dict = field(default_factory=dict)  # node -> bytes
    bytes_downloaded: dict = field(default_factory=dict)  # client -> bytes
    commitments: list = field(default_factory=list)  # each round's Commitment
    fraud_records: list = field(default_factory=list)  # FraudProof objects

    def to_json(self) -> str:
        payload = {
            "config": json.loads(self.config),
            "rounds": self.rounds,
            "chain": self.chain_lines,
            "ledgers": {str(k): v for k, v in self.ledgers.items()},
            "counters": {
                "bytes_sent": self.bytes_sent,
                "bytes_stored": {str(k): v for k, v in self.bytes_stored.items()},
                "bytes_downloaded": {
                    str(k): v for k, v in self.bytes_downloaded.items()
                },
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _propose(config: ScenarioConfig, params: TreeParams, round_no: int, design):
    rng = np.random.default_rng(
        np.uint64(derive_seed("block", config.master_seed, round_no))
    )
    block = rng.bytes(config.block_size)
    strategy = config.proposer_strategy
    if strategy == "honest":
        return (block, *orc.client_disperse(block, params, design))
    if strategy == "invalid_coding":
        tree = orc.build_tree_with_base_corruption(block, params, xor_mask=0x5A)
        return block, tree, orc.messages_for_tree(tree, design)
    # equivocating: odd nodes get the commitment of one block with the
    # chunks of another
    other = rng.bytes(config.block_size)
    tree, messages = orc.client_disperse(block, params, design)
    _, others = orc.client_disperse(other, params, design)
    return block, tree, {
        node: replace(msg, units=others[node].units) if node % 2 else msg
        for node, msg in messages.items()
    }


def _outcome(result, block: bytes) -> dict:
    """The trace fields of a client's retrieval result."""
    if isinstance(result, Block):
        return {
            "outcome": "block",
            "sha256": sha256(result.data).hex(),
            "matches_proposal": result.data == block,
        }
    if isinstance(result, Fraud):
        return {
            "outcome": "fraud",
            "layer": result.proof.layer,
            "equation": result.proof.equation_no,
        }
    return {
        "outcome": "insufficient",
        "fractions": [[u, f] for u, f in result.known_fractions],
    }


def run_scenario(config: ScenarioConfig) -> Trace:
    nodes = [OracleNode(i, config.behaviors[i]) for i in range(config.n_nodes)]
    chain = TrustedChain(config.n_nodes, config.beta, config.dispersal.gamma)
    n_chunks = geometry(config.tree, config.block_size).sizes[-1]
    trace = Trace(config=config_to_json(config))
    trace.bytes_stored = {n.node_id: 0 for n in nodes}
    trace.bytes_downloaded = {c: 0 for c in range(config.n_clients)}
    trace.ledgers = {c: [] for c in range(config.n_clients)}
    # the tree params of the next round: a confirmed bad code moves every
    # later round to the code seed the bad-code round agreed on
    params = config.tree

    for round_no in range(config.rounds):
        design = assign_chunks(
            n_chunks,
            config.n_nodes,
            config.dispersal.lam,
            seed=derive_seed("design", config.master_seed, round_no),
        )
        block, tree, messages = _propose(config, params, round_no, design)
        commitment = tree.commitment
        trace.commitments.append(commitment)
        key = orc.commit_key(commitment)
        # every proof of one commitment has one size, and a unit is its
        # proof behind an 8-byte length
        unit_bytes = 8 + len(encode_pom(sample_pom(tree, 0)))
        commitment_bytes = len(encode_commitment(commitment))

        votes = []
        for node in nodes:
            message = messages[node.node_id]
            trace.bytes_sent += commitment_bytes + len(message.units) * unit_bytes
            # dispersal only adds units of this round's key
            held = len(node.stored)
            vote = orc.node_on_dispersal(node, message)
            trace.bytes_stored[node.node_id] += (len(node.stored) - held) * unit_bytes
            if vote is not None:
                votes.append(vote)
        status = orc.chain_submit_votes(chain, commitment, votes)

        if status.committed:
            # no retrieval changes what the nodes store, so every client
            # downloads the same units
            downloaded = len(orc.gather_units(nodes, key)) * unit_bytes
        retrievals = []
        for client in range(config.n_clients):
            fields = {"outcome": "none"}
            if status.committed:
                trace.bytes_downloaded[client] += downloaded
                try:
                    result = orc.client_retrieve(chain, nodes, commitment, commitment.params)
                    fields = _outcome(result, block)
                except BadCode as signal:
                    new_seed = orc.bad_code_round(nodes, commitment, signal, chain)
                    params = replace(commitment.params, code_seed=new_seed)
                    fields = {"outcome": "bad_code", "new_seed": new_seed}
            entry = {"client": client, **fields}
            retrievals.append(entry)
            # an uncommitted round's ledger entry names no client
            ledger = entry if status.committed else fields
            trace.ledgers[client].append({"round": round_no, **ledger})

        audit_entry = None
        if status.committed and config.audit_probability > 0:
            audit_rng = np.random.default_rng(
                np.uint64(derive_seed("audit", config.master_seed, round_no))
            )
            outcome = orc.audit(
                chain, nodes, commitment, config.audit_probability, audit_rng, design
            )
            if outcome.audited is not None:
                audit_entry = {
                    "node": outcome.audited,
                    "passed": outcome.passed,
                    "slashed": outcome.slashed,
                }

        trace.rounds.append(
            {
                "round": round_no,
                "proposer": round_no % config.n_clients,
                "strategy": config.proposer_strategy,
                "committed": status.committed,
                "block_id": status.block_id,
                "votes": status.distinct_votes,
                "key": key.hex()[:16],
                "retrievals": retrievals,
                "audit": audit_entry,
            }
        )

    trace.chain_lines = chain.log_lines()
    trace.fraud_records = [
        rec.proof for rec in chain.records if isinstance(rec, orc.FraudRecord)
    ]
    return trace
