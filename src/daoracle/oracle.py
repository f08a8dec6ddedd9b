"""Protocol roles at desk scale: dispersing clients, storage/voting nodes,
and a trusted-chain mock that stores only commitments and fraud proofs.

Votes are identity-bound tokens (no signature aggregation); the chain
counts distinct voters against the ceil((beta+gamma)*N) threshold, exact
on the decimals beta and gamma were written as, keeps an append-only
record log with strictly increasing block ids, and never unmarks a
commitment once a verified fraud proof lands.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import itemgetter
from typing import Optional

import numpy as np

# protobench/layers.py times aggregate and encode_array through this
# module's names, and protobench's tests replace verify_symbol (walk_pom
# under the name they patch) here, so they stay imported though nothing in
# this module calls them
from .cit import (  # noqa: F401
    CodedTree,
    Commitment,
    Frontier,
    TreeParams,
    aggregate,
    build_tree,
    geometry,
    layer_code,
    sample_pom,
    unit_agrees,
    walk_pom as verify_symbol,
)
from .codec import encode_array  # noqa: F401
from .dispersal import DispersalDesign
from .errors import BadCode, ParameterError
from .retrieval import (
    ChunkSet,
    Fraud,
    FraudProof,
    ReconstructionResult,
    reconstruct,
    verify_fraud_proof,
)
from .serialize import encode_commitment
from .util import MASK64, as_written, sha256

# the penalty an audit charges a voter it finds without its exact units
STAKE_PENALTY = 1.0


class Behavior(enum.Enum):
    HONEST = "honest"
    SILENT = "silent"
    WITHHOLD_AFTER_VOTE = "withhold_after_vote"
    VOTE_WITHOUT_STORE = "vote_without_store"


def commit_key(commitment: Commitment) -> bytes:
    return sha256(encode_commitment(commitment))


@dataclass(frozen=True)
class DispersalMessage:
    commitment: Commitment
    units: tuple  # (chunk_index, base_symbol, pom) per distinct assigned index
    assigned: tuple[int, ...]  # full multiset the design assigns this node


@dataclass(frozen=True)
class Vote:
    node_id: int
    commitment_key: bytes


@dataclass
class OracleNode:
    """One storage/voting node.

    ``stored`` is flat, keyed ``(key, chunk_index)`` -> the ``(chunk_index,
    symbol, pom)`` unit as the message carried it, so ``len(stored)``
    counts units. ``assigned[key]`` holds, ascending and once each, every
    chunk index of every message the node took for commitment ``key``, so
    every stored unit of ``key`` has its index there.
    The node answers for one key by looking up ``(key, i)`` for each ``i``
    in ``assigned[key]``: no read touches the units of other commitments,
    and a lookup costs the same however many blocks the node holds.
    """

    node_id: int
    behavior: Behavior = Behavior.HONEST
    stored: dict = field(default_factory=dict)  # (key, chunk_index) -> unit
    assigned: dict = field(default_factory=dict)  # key -> sorted distinct chunk indices

    def units(self, key: bytes) -> tuple:
        """The node's stored (index, symbol, proof) units of ``key``, in
        ascending index order, whatever its behavior: one lookup per
        assigned index, of which a node that votes without storing holds
        none."""
        found = map(self.stored.get, zip(repeat(key), self.assigned.get(key, ())))
        return tuple(filter(None, found))

    def assign(self, key: bytes, assigned) -> None:
        """Add the indices ``assigned`` to the node's assignment for
        ``key``; units a second message for ``key`` leaves out stay stored,
        so the assignment keeps their indices."""
        self.assigned[key] = tuple(sorted(set(self.assigned.get(key, ())).union(assigned)))


@dataclass(frozen=True)
class CommitRecord:
    block_id: int
    key: bytes
    voters: frozenset[int]


@dataclass(frozen=True)
class FraudRecord:
    key: bytes
    proof: FraudProof


@dataclass(frozen=True)
class BadCodeRecord:
    key: bytes
    layer_size: int
    old_seed: int
    new_seed: int


@dataclass(frozen=True)
class CommitStatus:
    committed: bool
    block_id: Optional[int]
    distinct_votes: int


@dataclass
class TrustedChain:
    n_nodes: int
    beta: float
    gamma: float
    records: list = field(default_factory=list)
    votes: dict = field(default_factory=dict)  # key -> set of node ids
    committed: dict = field(default_factory=dict)  # key -> block id
    invalid: set = field(default_factory=set)
    # key -> replacement code seed, written with its BadCodeRecord
    new_seeds: dict = field(default_factory=dict)

    @property
    def commit_threshold(self) -> int:
        return math.ceil((as_written(self.beta) + as_written(self.gamma)) * self.n_nodes)

    def log_lines(self) -> list[str]:
        lines = []
        for rec in self.records:
            if isinstance(rec, CommitRecord):
                lines.append(
                    f"COMMIT id={rec.block_id} key={rec.key.hex()[:16]} "
                    f"votes={len(rec.voters)}"
                )
            elif isinstance(rec, FraudRecord):
                lines.append(
                    f"FRAUD key={rec.key.hex()[:16]} layer={rec.proof.layer} "
                    f"eq={rec.proof.equation_no}"
                )
            else:
                lines.append(
                    f"BADCODE key={rec.key.hex()[:16]} size={rec.layer_size} "
                    f"seed={rec.old_seed}->{rec.new_seed}"
                )
        return lines


def chain_submit_votes(chain: TrustedChain, commitment: Commitment, votes) -> CommitStatus:
    """Record votes; append a Commit once distinct voters reach the
    threshold. Idempotent per commitment, duplicates counted once. Block ids
    count commits from 0, so the next one is ``len(chain.committed)``."""
    key = commit_key(commitment)
    pool = chain.votes.setdefault(key, set())
    for vote in votes:
        if vote.commitment_key == key and 0 <= vote.node_id < chain.n_nodes:
            pool.add(vote.node_id)
    if key in chain.committed:
        return CommitStatus(True, chain.committed[key], len(pool))
    if key in chain.invalid or len(pool) < chain.commit_threshold:
        return CommitStatus(False, None, len(pool))
    block_id = len(chain.committed)
    chain.committed[key] = block_id
    chain.records.append(CommitRecord(block_id, key, frozenset(pool)))
    return CommitStatus(True, block_id, len(pool))


def chain_submit_fraud(
    chain: TrustedChain, commitment: Commitment, proof: FraudProof
) -> bool:
    """Verify then record a fraud proof; a recorded fraud marks the
    commitment invalid forever. A proof against a commitment the chain
    never committed is False unchecked, so a forged commitment cannot make
    the chain generate and gate codes of a size it chooses."""
    key = commit_key(commitment)
    if key not in chain.committed:
        return False
    if not verify_fraud_proof(commitment, commitment.params, proof):
        return False
    if key not in chain.invalid:
        chain.invalid.add(key)
        chain.records.append(FraudRecord(key, proof))
    return True


def client_disperse(block: bytes, params: TreeParams, design: DispersalDesign):
    """Build the tree and bundle per-node dispersal messages.

    Returns (tree, {node_id: DispersalMessage}); the chunk count must match
    the design (base layer size == design.n_chunks)."""
    tree = build_tree(block, params)
    return tree, messages_for_tree(tree, design)


def messages_for_tree(tree: CodedTree, design: DispersalDesign):
    m_base = tree.sizes[-1]
    if design.n_chunks != m_base:
        raise ParameterError(
            f"design covers {design.n_chunks} chunks but tree has {m_base}"
        )
    rows = design.assignments.tolist()
    assigned = [tuple(rows[node]) for node in range(design.n_nodes)]
    wanted = sorted(set().union(*assigned))
    # one proof and one unit per chunk, shared by every node it is assigned
    # to; a unit's symbol is its proof's base symbol
    units = {}
    for idx in wanted:
        pom = sample_pom(tree, idx)
        units[idx] = (idx, pom.base_symbol, pom)
    messages = {}
    for node, indices in enumerate(assigned):
        own = tuple(units[idx] for idx in sorted(set(indices)))
        messages[node] = DispersalMessage(tree.commitment, own, indices)
    return messages


def node_on_dispersal(node: OracleNode, message: DispersalMessage) -> Optional[Vote]:
    key = commit_key(message.commitment)
    if node.behavior is Behavior.SILENT:
        return None
    if node.behavior is Behavior.VOTE_WITHOUT_STORE:
        node.assign(key, message.assigned)
        return Vote(node.node_id, key)
    # honest verification path (shared by WITHHOLD_AFTER_VOTE, which behaves
    # correctly at dispersal time)
    if not _units_check(message.commitment, message.assigned, message.units):
        return None
    node.assign(key, message.assigned)
    for unit in message.units:
        node.stored[(key, unit[0])] = unit
    return Vote(node.node_id, key)


def _units_check(commitment: Commitment, assigned, units) -> bool:
    """True iff ``units`` holds one (index, symbol, proof) per distinct
    assigned index, ascending, each proof is for its index and symbol, and
    every proof walks to ``commitment``, all on one frontier. Dispersal and
    audit both check a node's units with it."""
    if [idx for idx, _, _ in units] != sorted(set(assigned)):
        return False
    if not all(unit_agrees(idx, symbol, pom) for idx, symbol, pom in units):
        return False
    frontier = Frontier(commitment)
    return all(frontier.walk(pom) for _, _, pom in units)


def node_on_retrieval(node: OracleNode, key: bytes):
    if node.behavior in (Behavior.SILENT, Behavior.WITHHOLD_AFTER_VOTE):
        return ()
    return node.units(key)


def _first_wins(answers) -> tuple:
    """The distinct units of several answers by ascending index; of units
    with one index, the first answer's wins."""
    units: dict[int, tuple] = {}
    # the last answer first, so each earlier one overwrites what it holds
    for answer in reversed(list(answers)):
        units.update(zip(map(itemgetter(0), answer), answer))
    return tuple(map(units.get, sorted(units)))


def gather_units(nodes, key: bytes):
    """Distinct units collected by querying every node (first answer wins)."""
    return _first_wins(node_on_retrieval(node, key) for node in nodes)


def client_retrieve(
    chain: TrustedChain, nodes, commitment: Commitment, params: TreeParams
) -> ReconstructionResult:
    """Query every node, reconstruct, and push any fraud proof on chain."""
    chunks = ChunkSet(commitment, gather_units(nodes, commit_key(commitment)))
    result = reconstruct(commitment, params, chunks)
    if isinstance(result, Fraud):
        chain_submit_fraud(chain, commitment, result.proof)
    return result


@dataclass(frozen=True)
class AuditOutcome:
    audited: Optional[int]
    passed: Optional[bool]
    slashed: float


def audit(
    chain: TrustedChain,
    nodes,
    commitment: Commitment,
    p_audit: float,
    rng: np.random.Generator,
    design: DispersalDesign,
) -> AuditOutcome:
    """With probability p_audit pick one voter; it must produce its exact
    assigned units or be charged STAKE_PENALTY. Only the outcome records
    the charge: votes are not weighted by stake."""
    if rng.random() >= p_audit:
        return AuditOutcome(None, None, 0.0)
    key = commit_key(commitment)
    voters = sorted(chain.votes.get(key, ()))
    if not voters:
        return AuditOutcome(None, None, 0.0)
    picked = int(voters[rng.integers(0, len(voters))])
    node = next(n for n in nodes if n.node_id == picked)
    want = sorted(set(int(i) for i in design.assignments[picked]))
    units = [node.stored[(key, idx)] for idx in want if (key, idx) in node.stored]
    if not _units_check(commitment, want, units):
        return AuditOutcome(picked, False, STAKE_PENALTY)
    return AuditOutcome(picked, True, 0.0)


def bad_code_round(
    nodes, commitment: Commitment, signal: BadCode, chain: TrustedChain
) -> int:
    """Pool every node's stored units, whatever its behavior (those of
    ``WITHHOLD_AFTER_VOTE`` nodes too), confirm the stall, then agree on a
    replacement code seed (old seed + smallest bump whose codes pass the
    alpha gate, mod 2**64 so that it stays a u64).

    Returns the agreed code seed; unchanged when pooling reconstructs fine.
    Once the chain records the agreed seed for the commitment, later calls
    read it from ``chain.new_seeds`` by key and run nothing again.
    """
    params = commitment.params
    key = commit_key(commitment)
    if key in chain.new_seeds:
        return chain.new_seeds[key]
    chunks = ChunkSet(commitment, _first_wins(node.units(key) for node in nodes))
    try:
        reconstruct(commitment, params, chunks)
        confirmed = False
    except BadCode:
        confirmed = True
    if not confirmed:
        return params.code_seed

    for bump in range(1, 1 + max(1, params.max_code_attempts)):
        candidate = replace(params, code_seed=(params.code_seed + bump) & MASK64)
        try:
            layer_code(candidate, signal.layer_size)
        except BadCode:
            continue
        chain.records.append(
            BadCodeRecord(key, signal.layer_size, params.code_seed, candidate.code_seed)
        )
        chain.new_seeds[key] = candidate.code_seed
        return candidate.code_seed
    raise BadCode("no replacement seed met the gate", layer_size=signal.layer_size)


def build_tree_with_base_corruption(
    block: bytes, params: TreeParams, xor_mask: int = 0x01
) -> CodedTree:
    """Adversarial proposer harness: ``build_tree`` with a hook that, at the
    base layer only, XORs ``xor_mask`` into the first byte of the first
    parity symbol, so the tree is self-consistent (every proof verifies)
    while the base layer violates its code."""
    depth = geometry(params, len(block)).depth

    def flip(u: int, symbols: np.ndarray, code) -> None:
        if u == depth:
            symbols[code.n_systematic, 0] ^= xor_mask

    return build_tree(block, params, flip)
