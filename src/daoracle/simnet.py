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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import oracle as orc
from .cit import TreeParams, build_tree, geometry
from .dispersal import DispersalParams, assign_chunks
from .errors import BadCode, ConfigError
from .oracle import Behavior, DispersalMessage, OracleNode, TrustedChain
from .retrieval import Block, Fraud
from .serialize import encode_commitment, encode_pom
from .util import NUMBER, RATE, derive_seed, json_fields, sha256

PROPOSER_STRATEGIES = ("honest", "invalid_coding", "equivocating")
# caps on values a scenario or trace file sets, checked before they size
# the behavior list, the node table or a proposed block
MAX_NODES, MAX_BLOCK_SIZE = 1 << 14, 1 << 24


def _check_sizes(n_nodes: int, block_size: int) -> None:
    if not 1 <= n_nodes <= MAX_NODES:
        raise ConfigError(f"n_nodes must lie in [1, {MAX_NODES}], got {n_nodes}")
    if not 1 <= block_size <= MAX_BLOCK_SIZE:
        raise ConfigError(f"block_size must lie in [1, {MAX_BLOCK_SIZE}], got {block_size}")


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
        _check_sizes(self.n_nodes, self.block_size)
        if len(self.behaviors) != self.n_nodes:
            raise ConfigError("behaviors must list one entry per node")
        bad = sum(1 for b in self.behaviors if b is not Behavior.HONEST)
        if bad > int(self.beta * self.n_nodes):
            raise ConfigError(
                f"{bad} non-honest nodes exceeds beta*N = {self.beta * self.n_nodes}"
            )
        if self.proposer_strategy not in PROPOSER_STRATEGIES:
            raise ConfigError(f"unknown proposer strategy {self.proposer_strategy!r}")
        if self.n_clients < 1 or self.rounds < 0:
            raise ConfigError("need at least one client and rounds >= 0")
        if not 0 <= self.audit_probability <= 1:
            raise ConfigError("audit_probability must lie in [0, 1]")
        n_chunks = geometry(self.tree, self.block_size).sizes[-1]
        k = n_chunks / (self.n_nodes * self.dispersal.lam)
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise ConfigError(
                f"chunks per node M/(N*lambda) = {k} must be a positive integer"
            )


def _behavior(name) -> Behavior:
    try:
        return Behavior(name)
    except ValueError:
        raise ConfigError(f"unknown behavior {name!r}") from None


def behaviors_from_counts(
    n_nodes: int, counts: dict, seed: Optional[int] = None
) -> tuple[Behavior, ...]:
    """Expand {"silent": 3, ...} counts; ids are sampled by seed when given,
    else the highest ids take the non-honest roles."""
    order = []
    # every count must be an int
    for name, cnt in sorted(json_fields(counts, {}, dict.fromkeys(counts, int)).items()):
        order += [_behavior(name)] * cnt
    if len(order) > n_nodes:
        raise ConfigError("more behavior assignments than nodes")
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
    CLI's tree parameter file. Raises ConfigError for a missing key or a
    value of the wrong type."""
    return TreeParams(**json_fields(raw, TREE_FIELDS, OPTIONAL_TREE_FIELDS))


def config_from_dict(raw) -> ScenarioConfig:
    """ScenarioConfig from a parsed scenario JSON object (FORMATS.md).
    Raises ConfigError for a missing key, a value of the wrong type, or a
    node count or block size outside its cap."""
    raw = json_fields(
        raw,
        {"n_nodes": int, "beta": NUMBER, "tree": dict, "dispersal": dict, "block_size": int},
        {
            "behaviors": (dict, list), "behavior_seed": int, "n_clients": int,
            "proposer_strategy": str, "rounds": int, "audit_probability": NUMBER,
            "master_seed": int,
        },
    )
    disp = json_fields(raw["dispersal"], {"gamma": NUMBER, "eta": NUMBER, "lambda": NUMBER})
    n_nodes = raw["n_nodes"]
    _check_sizes(n_nodes, raw["block_size"])
    behaviors = raw.get("behaviors", {})
    if isinstance(behaviors, list):
        assignment = tuple(_behavior(b) for b in behaviors)
    else:
        assignment = behaviors_from_counts(
            n_nodes, behaviors, raw.get("behavior_seed")
        )
    return ScenarioConfig(
        n_nodes=n_nodes,
        beta=raw["beta"],
        tree=tree_params_from_dict(raw["tree"]),
        dispersal=DispersalParams(disp["gamma"], disp["eta"], disp["lambda"]),
        block_size=raw["block_size"],
        behaviors=assignment,
        n_clients=raw.get("n_clients", 3),
        proposer_strategy=raw.get("proposer_strategy", "honest"),
        rounds=raw.get("rounds", 1),
        audit_probability=raw.get("audit_probability", 0.0),
        master_seed=raw.get("master_seed", 0),
    )


def config_to_json(config: ScenarioConfig) -> str:
    raw = {
        "n_nodes": config.n_nodes,
        "beta": config.beta,
        "tree": {
            **{name: getattr(config.tree, name) for name in (*TREE_FIELDS, *OPTIONAL_TREE_FIELDS)},
            "rate": str(config.tree.rate),
        },
        "dispersal": {
            "gamma": config.dispersal.gamma,
            "eta": config.dispersal.eta,
            "lambda": config.dispersal.lam,
        },
        "block_size": config.block_size,
        "behaviors": [b.value for b in config.behaviors],
        "n_clients": config.n_clients,
        "proposer_strategy": config.proposer_strategy,
        "rounds": config.rounds,
        "audit_probability": config.audit_probability,
        "master_seed": config.master_seed,
    }
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
    results: dict = field(default_factory=dict)  # (round, client) -> result object
    fraud_records: list = field(default_factory=list)  # FraudProof objects
    commitments: dict = field(default_factory=dict)  # round -> Commitment

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

    def counters_csv(self) -> str:
        lines = ["counter,entity,bytes"]
        lines.append(f"sent,all,{self.bytes_sent}")
        for node, b in sorted(self.bytes_stored.items()):
            lines.append(f"stored,node{node},{b}")
        for client, b in sorted(self.bytes_downloaded.items()):
            lines.append(f"downloaded,client{client},{b}")
        return "\n".join(lines) + "\n"


def _unit_size(pom, cache: dict) -> int:
    # keyed on the proof's value: an id() key could be reused by a later
    # proof once an earlier, unstored one is garbage-collected
    size = cache.get(pom)
    if size is None:
        size = cache[pom] = 8 + len(encode_pom(pom))
    return size


def _units_size(units, cache: dict) -> int:
    return sum(_unit_size(pom, cache) for _idx, _symbol, pom in units)


def _message_size(message: DispersalMessage, cache: dict) -> int:
    return len(encode_commitment(message.commitment)) + _units_size(message.units, cache)


def _propose(config: ScenarioConfig, params: TreeParams, round_no: int, design):
    rng = np.random.default_rng(
        np.uint64(derive_seed("block", config.master_seed, round_no))
    )
    block = rng.bytes(config.block_size)
    strategy = config.proposer_strategy
    if strategy == "honest":
        tree = build_tree(block, params)
        return block, tree, orc.messages_for_tree(tree, design)
    if strategy == "invalid_coding":
        tree = orc.build_tree_with_base_corruption(block, params, xor_mask=0x5A)
        return block, tree, orc.messages_for_tree(tree, design)
    # equivocating: commitment from one block, chunks from another
    other = rng.bytes(config.block_size)
    tree_a = build_tree(block, params)
    tree_b = build_tree(other, params)
    msgs_a = orc.messages_for_tree(tree_a, design)
    msgs_b = orc.messages_for_tree(tree_b, design)
    messages = {}
    for node_id, msg in msgs_a.items():
        if node_id % 2 == 1:
            messages[node_id] = DispersalMessage(
                tree_a.commitment, msgs_b[node_id].units, msg.assigned
            )
        else:
            messages[node_id] = msg
    return block, tree_a, messages


def run_scenario(config: ScenarioConfig) -> Trace:
    nodes = [OracleNode(i, config.behaviors[i]) for i in range(config.n_nodes)]
    chain = TrustedChain(config.n_nodes, config.beta, config.dispersal.gamma)
    n_chunks = geometry(config.tree, config.block_size).sizes[-1]
    trace = Trace(config=config_to_json(config))
    trace.bytes_stored = {n.node_id: 0 for n in nodes}
    trace.bytes_downloaded = {c: 0 for c in range(config.n_clients)}
    trace.ledgers = {c: [] for c in range(config.n_clients)}
    size_cache: dict = {}
    # the tree params of the next round: a confirmed bad code moves every
    # later round to the code seed the bad-code round agreed on
    params = config.tree

    for round_no in range(config.rounds):
        proposer = round_no % config.n_clients
        design = assign_chunks(
            n_chunks,
            config.n_nodes,
            config.dispersal.lam,
            seed=derive_seed("design", config.master_seed, round_no),
        )
        block, tree, messages = _propose(config, params, round_no, design)
        commitment = tree.commitment
        trace.commitments[round_no] = commitment
        key = orc.commit_key(commitment)

        votes = []
        for node in nodes:
            trace.bytes_sent += _message_size(messages[node.node_id], size_cache)
            # only this round's key can change: add its new units' bytes
            held = _units_size(node.units(key), size_cache)
            vote = orc.node_on_dispersal(node, messages[node.node_id])
            trace.bytes_stored[node.node_id] += _units_size(node.units(key), size_cache) - held
            if vote is not None:
                votes.append(vote)
        status = orc.chain_submit_votes(chain, commitment, votes)

        retrievals = []
        for client in range(config.n_clients):
            if not status.committed:
                retrievals.append({"client": client, "outcome": "none"})
                trace.ledgers[client].append({"round": round_no, "outcome": "none"})
                continue
            units = orc.gather_units(nodes, key)
            trace.bytes_downloaded[client] += _units_size(units, size_cache)
            chunks = orc.ChunkSet(commitment, units)
            try:
                result = orc.reconstruct(commitment, commitment.params, chunks)
            except BadCode as signal:
                new_seed = orc.bad_code_round(nodes, commitment, signal, chain)
                params = replace(commitment.params, code_seed=new_seed)
                entry = {"client": client, "outcome": "bad_code", "new_seed": new_seed}
                retrievals.append(entry)
                trace.ledgers[client].append({"round": round_no, **entry})
                trace.results[(round_no, client)] = signal
                continue
            trace.results[(round_no, client)] = result
            if isinstance(result, Block):
                entry = {
                    "client": client,
                    "outcome": "block",
                    "sha256": sha256(result.data).hex(),
                    "matches_proposal": result.data == block,
                }
            elif isinstance(result, Fraud):
                orc.chain_submit_fraud(chain, commitment, result.proof)
                entry = {
                    "client": client,
                    "outcome": "fraud",
                    "layer": result.proof.layer,
                    "equation": result.proof.equation_no,
                }
            else:
                entry = {
                    "client": client,
                    "outcome": "insufficient",
                    "fractions": [[u, f] for u, f in result.known_fractions],
                }
            retrievals.append(entry)
            trace.ledgers[client].append({"round": round_no, **entry})

        audit_rng = np.random.default_rng(
            np.uint64(derive_seed("audit", config.master_seed, round_no))
        )
        audit_entry = None
        if status.committed and config.audit_probability > 0:
            outcome = orc.audit(
                chain,
                nodes,
                commitment,
                config.audit_probability,
                audit_rng,
                design,
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
                "proposer": proposer,
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
