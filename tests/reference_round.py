"""Reference rounds: a plain replay of a ``ScenarioConfig``, round by round,
from the reference components.

Every proof is sampled and walked on its own (``reference_proofs``), each
node's units are read by scanning all it stores (``reference_storage``),
and every reconstruction runs on ``reference_peel.Reconstructor``. No
frontier, sampling table or per-round size is shared: each byte counter
encodes every unit it counts. The chain's rules are restated here: a
commitment commits once its distinct voters, pooled over every round that
proposed it, reach ceil((beta + gamma) * N), taken exactly on the
decimals beta and gamma were written as (0.1 is 1/10), with the next
block id; the first fraud proof against a committed commitment that holds
is recorded, and later ones are not; the first bad-code round that
confirms a stall records the agreed code seed, which later rounds use and
later clients read back.

``simnet.run_scenario`` must give the same trace: votes and commits, each
client's outcome, the chain's lines, the ledgers, the audits and the three
byte counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from daoracle.cit import build_tree, geometry, layer_code
from daoracle.dispersal import assign_chunks
from daoracle.errors import BadCode
from daoracle.oracle import Behavior
from daoracle.retrieval import Block, ChunkSet, Fraud
from daoracle.serialize import encode_commitment, encode_pom
from daoracle.util import derive_seed, sha256
from conftest import flipping
from reference_peel import Reconstructor
from reference_proofs import sample_pom, verify_membership, walk_pom
from reference_storage import gather_units, pooled_units


@dataclass
class Node:
    node_id: int
    behavior: Behavior
    stored: dict = field(default_factory=dict)  # (key, index) -> (index, symbol, proof)


@dataclass
class Chain:
    threshold: int
    lines: list = field(default_factory=list)
    votes: dict = field(default_factory=dict)  # key -> voter ids, over all rounds
    committed: dict = field(default_factory=dict)  # key -> block id
    invalid: set = field(default_factory=set)
    seeds: dict = field(default_factory=dict)  # key -> agreed code seed
    frauds: list = field(default_factory=list)


def _key(commitment) -> bytes:
    return sha256(encode_commitment(commitment))


def _unit_bytes(units) -> int:
    """Each unit is its encoded proof behind an 8-byte length."""
    return sum(8 + len(encode_pom(pom)) for _index, _symbol, pom in units)


def _units(tree, assigned) -> tuple:
    """One (index, symbol, proof) per distinct assigned index, ascending."""
    units = []
    for index in sorted(set(assigned)):
        pom = sample_pom(tree, index)
        units.append((index, pom.base_symbol, pom))
    return tuple(units)


def _units_hold(commitment, assigned, units) -> bool:
    """A node's check of its units, at dispersal and at an audit."""
    if [index for index, _, _ in units] != sorted(set(assigned)):
        return False
    return all(
        index == pom.base_index
        and symbol == pom.base_symbol
        and walk_pom(commitment, commitment.params, pom) is not None
        for index, symbol, pom in units
    )


def _propose(config, params, round_no, design):
    """(block, tree the commitment is of, each node's units)."""
    rng = np.random.default_rng(np.uint64(derive_seed("block", config.master_seed, round_no)))
    block = rng.bytes(config.block_size)
    rows = design.assignments.tolist()
    if config.proposer_strategy == "invalid_coding":
        geo = geometry(params, len(block))
        tree = build_tree(block, params, flipping({geo.depth: [(geo.sys_counts[-1], 0x5A)]}))
    else:
        tree = build_tree(block, params)
    units = [_units(tree, row) for row in rows]
    if config.proposer_strategy == "equivocating":
        # odd nodes get the chunks of another block under this commitment
        other = build_tree(rng.bytes(config.block_size), params)
        units = [_units(other, row) if node % 2 else units[node] for node, row in enumerate(rows)]
    return block, tree, units


def fraud_holds(commitment, proof) -> bool:
    """The proof's members are committed at their (layer, index) and
    violate the proof's equation of the layer code: they XOR to nonzero,
    or, all but one, to a value whose digest is not the one committed for
    that one."""
    params = commitment.params
    u = proof.layer
    code = layer_code(params, geometry(params, commitment.block_len).sizes[u])
    if not 0 <= proof.equation_no < len(code.parity_checks):
        return False
    indices = set(code.parity_checks[proof.equation_no])

    def committed(index, digest, ancestors):
        return verify_membership(commitment, params, u, index, digest, ancestors)

    values = {m.index: m.value for m in proof.members}
    if len(values) != len(proof.members):
        return False
    if not all(committed(m.index, sha256(m.value), m.ancestors) for m in proof.members):
        return False
    xor = np.zeros(len(proof.members[0].value), dtype=np.uint8)
    for value in values.values():
        xor ^= np.frombuffer(value, dtype=np.uint8)
    mm = proof.mismatch
    if mm is None:
        return set(values) == indices and bool(xor.any())
    return (
        set(values) == indices - {mm.index}
        and mm.index in indices
        and committed(mm.index, mm.expected_hash, mm.ancestors)
        and sha256(xor.tobytes()) != mm.expected_hash
    )


def _bad_code_round(chain, nodes, commitment, key, signal) -> int:
    """The agreed code seed: read back once recorded, else found by pooling
    every node's units, confirming the stall, and bumping the seed to the
    first whose code of the stalled size passes the gate."""
    if key in chain.seeds:
        return chain.seeds[key]
    params = commitment.params
    try:
        Reconstructor(commitment, params, ChunkSet(commitment, pooled_units(nodes, key))).run()
        return params.code_seed  # pooled, the block reconstructs: no stall
    except BadCode:
        pass
    for bump in range(1, 1 + max(1, params.max_code_attempts)):
        candidate = replace(params, code_seed=params.code_seed + bump)
        try:
            layer_code(candidate, signal.layer_size)
        except BadCode:
            continue
        chain.lines.append(
            f"BADCODE key={key.hex()[:16]} size={signal.layer_size} "
            f"seed={params.code_seed}->{candidate.code_seed}"
        )
        chain.seeds[key] = candidate.code_seed
        return candidate.code_seed
    raise BadCode("no replacement seed met the gate", layer_size=signal.layer_size)


def _retrieve(chain, nodes, commitment, key, units, block) -> tuple[dict, object]:
    """One client's trace fields and what it met from the units it
    gathered: its result, or the BadCode it caught."""
    try:
        result = Reconstructor(commitment, commitment.params, ChunkSet(commitment, units)).run()
    except BadCode as signal:
        seed = _bad_code_round(chain, nodes, commitment, key, signal)
        return {"outcome": "bad_code", "new_seed": seed}, signal
    if isinstance(result, Block):
        data = result.data
        return {"outcome": "block", "sha256": sha256(data).hex(),
                "matches_proposal": data == block}, result
    if isinstance(result, Fraud):
        proof = result.proof
        if key in chain.committed and fraud_holds(commitment, proof) and key not in chain.invalid:
            chain.invalid.add(key)
            chain.frauds.append(proof)
            chain.lines.append(
                f"FRAUD key={key.hex()[:16]} layer={proof.layer} eq={proof.equation_no}"
            )
        return {"outcome": "fraud", "layer": proof.layer, "equation": proof.equation_no}, result
    fractions = [[u, f] for u, f in result.known_fractions]
    return {"outcome": "insufficient", "fractions": fractions}, result


def _audit(config, chain, nodes, commitment, key, round_no, design):
    rng = np.random.default_rng(np.uint64(derive_seed("audit", config.master_seed, round_no)))
    if rng.random() >= config.audit_probability:
        return None
    voters = sorted(chain.votes.get(key, ()))
    if not voters:
        return None
    picked = int(voters[rng.integers(0, len(voters))])
    want = sorted(set(design.assignments[picked].tolist()))
    stored = nodes[picked].stored
    units = [stored[(key, i)] for i in want if (key, i) in stored]
    passed = _units_hold(commitment, want, units)
    return {"node": picked, "passed": passed, "slashed": 0.0 if passed else 1.0}


def replay(config) -> tuple[dict, list, list]:
    """(the trace payload ``simnet.Trace.to_json`` writes, less its config;
    the chain's recorded fraud proofs; each client's result or caught
    BadCode, by round and client)."""
    n, n_clients = config.n_nodes, config.n_clients
    nodes = [Node(i, config.behaviors[i]) for i in range(n)]
    beta, gamma = Fraction(repr(config.beta)), Fraction(repr(config.dispersal.gamma))
    chain = Chain(math.ceil((beta + gamma) * n))
    sent, stored = 0, dict.fromkeys(range(n), 0)
    downloaded = dict.fromkeys(range(n_clients), 0)
    ledgers = {c: [] for c in range(n_clients)}
    rounds, met = [], []
    params = config.tree
    n_chunks = geometry(params, config.block_size).sizes[-1]

    for round_no in range(config.rounds):
        design = assign_chunks(
            n_chunks, n, config.dispersal.lam,
            seed=derive_seed("design", config.master_seed, round_no),
        )
        block, tree, units = _propose(config, params, round_no, design)
        commitment = tree.commitment
        key = _key(commitment)

        voters = set()
        for node in nodes:
            mine, assigned = units[node.node_id], design.assignments[node.node_id].tolist()
            sent += len(encode_commitment(commitment)) + _unit_bytes(mine)
            if node.behavior is Behavior.SILENT:
                continue
            if node.behavior is not Behavior.VOTE_WITHOUT_STORE:
                if not _units_hold(commitment, assigned, mine):
                    continue
                stored[node.node_id] += _unit_bytes(
                    u for u in mine if (key, u[0]) not in node.stored
                )
                for unit in mine:
                    node.stored[(key, unit[0])] = unit
            voters.add(node.node_id)
        pool = chain.votes.setdefault(key, set())
        pool |= voters
        if key not in chain.committed and len(pool) >= chain.threshold:
            chain.committed[key] = len(chain.committed)
            chain.lines.append(
                f"COMMIT id={chain.committed[key]} key={key.hex()[:16]} votes={len(pool)}"
            )
        committed = key in chain.committed

        retrievals = []
        for client in range(n_clients):
            fields = {"outcome": "none"}
            if committed:
                units = gather_units(nodes, key)
                downloaded[client] += _unit_bytes(units)
                fields, outcome = _retrieve(chain, nodes, commitment, key, units, block)
                met.append((round_no, client, outcome))
                if isinstance(outcome, BadCode):
                    params = replace(commitment.params, code_seed=fields["new_seed"])
            entry = {"client": client, **fields}
            retrievals.append(entry)
            ledgers[client].append({"round": round_no, **(entry if committed else fields)})

        audit = None
        if committed and config.audit_probability > 0:
            audit = _audit(config, chain, nodes, commitment, key, round_no, design)
        rounds.append({
            "round": round_no,
            "proposer": round_no % n_clients,
            "strategy": config.proposer_strategy,
            "committed": committed,
            "block_id": chain.committed.get(key),
            "votes": len(pool),
            "key": key.hex()[:16],
            "retrievals": retrievals,
            "audit": audit,
        })

    payload = {
        "rounds": rounds,
        "chain": chain.lines,
        "ledgers": {str(c): v for c, v in ledgers.items()},
        "counters": {
            "bytes_sent": sent,
            "bytes_stored": {str(i): b for i, b in stored.items()},
            "bytes_downloaded": {str(c): b for c, b in downloaded.items()},
        },
    }
    return payload, chain.frauds, met
