"""Seeded inputs and the three workloads.

Every input (blocks, dispersal designs, node behaviours, delivered chunk
subsets) is drawn from the workload seed outside the timed regions. The
workloads time only calls into the package's public role functions, looked up
as module attributes at call time so the traced run can wrap them.

An operation is one block: for the round workloads, propose, disperse to
every node, submit the votes and let every client retrieve; for
``bulk_block``, commit, sample every proof, encode the bundle, then decode a
delivered share of it and reconstruct. Each operation is checked and
counted as failed with a reason when a check does not hold.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from daoracle import cit, dispersal, metrics, retrieval, serialize
from daoracle import oracle as orc
from daoracle.errors import BadCode

from .clock import Clock

NO_COMMIT = "no_commit"
WRONG_OUTCOME = "wrong_outcome"
EXCEPTION = "exception"

# the round workloads' fixed protocol settings: beta = 0.25 of the nodes
# faulty, the chain's gamma = 0.5, and 2 clients retrieving each block
BETA, GAMMA, CLIENTS = 0.25, 0.5, 2


def tree_params(symbol_size: int) -> cit.TreeParams:
    """The scenarios' code family (rate 1/4, q=8, d=8, alpha=0.125, t=4,
    code_seed 11, 24 gate trials) at the given symbol width."""
    return cit.TreeParams(
        symbol_size=symbol_size,
        root_size=4,
        rate=Fraction(1, 4),
        batch=8,
        max_eq_degree=8,
        alpha=0.125,
        code_seed=11,
        gate_trials=24,
    )


@dataclass(frozen=True)
class Geometry:
    """Sizes of one workload. ``n_nodes == 0`` is the node-less library
    path; ``delivered`` is the share of chunks its client receives."""

    params: cit.TreeParams
    block_size: int
    n_nodes: int = 0
    silent: int = 0
    withhold: int = 0
    lam: float = 0.5
    delivered: float = 0.8

    @property
    def n_chunks(self) -> int:
        return self.params.layer_sizes(self.block_size)[-1]

    def cost_params(self) -> metrics.CostParams:
        """Closed-form inputs; the node-less path is one node holding every
        chunk (N = 1, lambda = 1)."""
        p = self.params
        return metrics.CostParams(
            block_size=self.block_size,
            n_nodes=self.n_nodes or 1,
            symbol_size=p.symbol_size,
            root_size=p.root_size,
            rate=float(p.rate),
            batch=p.batch,
            max_eq_degree=p.max_eq_degree,
            lam=self.lam if self.n_nodes else 1.0,
        )


ROUND = Geometry(tree_params(1024), 256 * 1024, n_nodes=64, silent=8, withhold=8)
GEOMETRIES = {
    "honest_round": ROUND,
    "fraud_round": Geometry(ROUND.params, ROUND.block_size, n_nodes=64),
    "bulk_block": Geometry(tree_params(64 * 1024), 16 * 1024 * 1024),
}

# Seconds one operation takes on a 2-core machine; a run of S seconds is
# round(S / NOMINAL_OP_S) operations. The count depends only on S, never on
# a clock, so every run of a workload does the same work and the round
# workloads carry the same stored history.
NOMINAL_OP_S = {"honest_round": 1.0, "fraud_round": 1.1, "bulk_block": 1.1}


def op_count(name: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_OP_S[name]))


@dataclass
class OpRecord:
    """Timings (reference seconds, see ``clock.py``) and outcome of one
    operation."""

    propose_s: float = 0.0
    commit_s: Optional[float] = None
    retrieve_s: list = field(default_factory=list)
    serial_s: float = 0.0
    wall_s: float = 0.0  # serial_s as wall seconds
    failure: Optional[str] = None
    bad_code: int = 0  # outcomes that were verified stalls of a bad code
    known_fraction: list = field(default_factory=list)
    # byte accounting, filled only when asked for
    wire_bytes: Optional[int] = None
    stored_bytes: Optional[float] = None
    fraud_proof_bytes: list = field(default_factory=list)


def _null_scope(_op):
    return contextlib.nullcontext()


class Workload:
    """Base workload. ``scope(op)`` brackets every timed region; the traced
    run replaces it with the tracer's so only timed work is traced."""

    name = ""

    def __init__(self, geometry: Geometry, seed: int):
        self.geo = geometry
        self.seed = seed
        self.scope = _null_scope
        self.clock = Clock()
        self.digest = hashlib.sha256()

    @contextlib.contextmanager
    def timed(self, rec: OpRecord, op: int):
        """A timed region of operation ``op``, counted as serial work."""
        with self.clock.region(self.scope, op) as timing:
            yield timing
        rec.serial_s += timing.seconds
        rec.wall_s += timing.wall

    def rng(self, op: int) -> np.random.Generator:
        tag = int.from_bytes(self.name.encode()[:8], "little")
        return np.random.default_rng([self.seed, tag, op + 1])

    def gate(self) -> None:
        """Generate and alpha-gate the code of every layer size."""
        params = self.geo.params
        for size in params.layer_sizes(self.geo.block_size):
            cit.layer_code(params, size)

    def run_op(self, op: int, account: bool = False) -> OpRecord:
        raise NotImplementedError

    def _bad_code(self, rec: OpRecord, signal: BadCode, received) -> bool:
        """Check a ``BadCode`` outcome, the package's documented answer to a
        code whose stopping set the chunks hit, against the stall that the
        base chunks the client ``received`` lead to, and count it when the
        two agree."""
        if not same_stall(self.geo, signal, received):
            return False
        rec.bad_code += 1
        self.digest.update(f"BADCODE {signal.layer} {sorted(signal.unknown)}".encode())
        return True


class RoundWorkload(Workload):
    """One proposer, ``n_nodes`` storage nodes that keep their storage
    across rounds, a trusted chain and ``CLIENTS`` retrieving clients."""

    def __init__(self, geometry: Geometry, seed: int, fraud: bool):
        super().__init__(geometry, seed)
        self.name = "fraud_round" if fraud else "honest_round"
        self.fraud = fraud
        g = geometry
        pick = np.random.default_rng([seed, 0]).permutation(g.n_nodes)
        roles = {int(i): orc.Behavior.SILENT for i in pick[: g.silent]}
        roles.update(
            {int(i): orc.Behavior.WITHHOLD_AFTER_VOTE for i in pick[g.silent : g.silent + g.withhold]}
        )
        self.nodes = [
            orc.OracleNode(i, roles.get(i, orc.Behavior.HONEST)) for i in range(g.n_nodes)
        ]
        self.chain = orc.TrustedChain(g.n_nodes, BETA, GAMMA)
        self.answering = [n.node_id for n in self.nodes if n.behavior is orc.Behavior.HONEST]

    def run_op(self, op: int, account: bool = False) -> OpRecord:
        g, params = self.geo, self.geo.params
        rng = self.rng(op)
        block = rng.bytes(g.block_size)
        design = dispersal.assign_chunks(
            g.n_chunks, g.n_nodes, g.lam, seed=int(rng.integers(1 << 62))
        )
        rec = OpRecord()

        with self.timed(rec, op) as propose:
            if self.fraud:
                tree = orc.build_tree_with_base_corruption(block, params)
                messages = orc.messages_for_tree(tree, design)
            else:
                tree, messages = orc.client_disperse(block, params, design)
        rec.propose_s = propose.seconds
        commitment = tree.commitment

        votes, vote_s = [], []
        for node in self.nodes:
            with self.timed(rec, op) as verify:
                vote = orc.node_on_dispersal(node, messages[node.node_id])
            if vote is not None:
                votes.append(vote)
                vote_s.append(verify.seconds)
        with self.timed(rec, op) as chain:
            status = orc.chain_submit_votes(self.chain, commitment, votes)

        quorum = self.chain.commit_threshold
        key16 = orc.commit_key(commitment).hex()[:16]
        committed = status.committed and len(vote_s) >= quorum
        if committed:
            # nodes verify in parallel: the commit waits for the quorum-th
            # fastest voter, then for the chain
            rec.commit_s = rec.propose_s + sorted(vote_s)[quorum - 1] + chain.seconds
            prefix = f"COMMIT id={status.block_id} key={key16} "
            committed = any(line.startswith(prefix) for line in self.chain.log_lines())
        self.digest.update(serialize.encode_commitment(commitment))
        if not committed:
            rec.failure = NO_COMMIT
            return rec

        results = []
        for _client in range(CLIENTS):
            with self.timed(rec, op) as retrieve:
                try:
                    result = orc.client_retrieve(self.chain, self.nodes, commitment, params)
                except BadCode as signal:
                    result = signal
            rec.retrieve_s.append(retrieve.seconds)
            results.append(result)

        lines = set(self.chain.log_lines())
        # the clients hear from the honest nodes, which store every unit
        received = design.assignments[self.answering]
        for result in results:
            if isinstance(result, BadCode):
                ok = self._bad_code(rec, result, received)
            elif self.fraud:
                ok = (
                    isinstance(result, retrieval.Fraud)
                    and retrieval.verify_fraud_proof(commitment, params, result.proof)
                    and f"FRAUD key={key16} layer={result.proof.layer} "
                    f"eq={result.proof.equation_no}" in lines
                )
                if ok:
                    self.digest.update(serialize.encode_fraud_proof(result.proof))
            else:
                ok = isinstance(result, retrieval.Block) and result.data == block
                if ok:
                    self.digest.update(result.data)
            if not ok:
                rec.failure = WRONG_OUTCOME

        if account:
            share = len(np.unique(received)) / g.n_chunks
            rec.known_fraction = [share] * CLIENTS
            self._account(rec, commitment, messages, results)
        return rec

    def _account(self, rec, commitment, messages, results):
        com_bytes = len(serialize.encode_commitment(commitment))
        unit_bytes = {}
        per_node = []
        for node in self.nodes:
            total = com_bytes
            for idx, _symbol, pom in messages[node.node_id].units:
                if idx not in unit_bytes:
                    unit_bytes[idx] = 8 + len(serialize.encode_pom(pom))
                total += unit_bytes[idx]
            per_node.append((node, total))
        rec.wire_bytes = sum(total for _node, total in per_node)
        storing = [
            total for node, total in per_node if node.behavior is not orc.Behavior.SILENT
        ]
        rec.stored_bytes = sum(storing) / len(storing)
        rec.fraud_proof_bytes = [
            retrieval.fraud_proof_size(r.proof) for r in results if isinstance(r, retrieval.Fraud)
        ]


class BulkWorkload(Workload):
    """The library path of the README and CLI: no nodes, one client that
    receives the bundle of a seeded ``delivered`` share of the chunks."""

    name = "bulk_block"

    def run_op(self, op: int, account: bool = False) -> OpRecord:
        g, params = self.geo, self.geo.params
        m = g.n_chunks
        rng = self.rng(op)
        block = rng.bytes(g.block_size)
        keep = np.sort(rng.choice(m, size=int(g.delivered * m), replace=False))
        rec = OpRecord()

        with self.timed(rec, op) as build:
            tree = cit.build_tree(block, params)
        # no votes to wait for: the commitment is final once built
        rec.commit_s = build.seconds
        with self.timed(rec, op) as material:
            base = tree.layers[-1].symbols
            units = tuple((j, base[j].tobytes(), cit.sample_pom(tree, j)) for j in range(m))
            bundle = serialize.encode_chunk_bundle(units)
        rec.propose_s = build.seconds + material.seconds
        commitment = tree.commitment
        delivered = serialize.encode_chunk_bundle(tuple(units[int(j)] for j in keep))

        with self.timed(rec, op) as retrieve:
            received = serialize.decode_chunk_bundle(delivered)
            try:
                result = retrieval.reconstruct(
                    commitment, params, retrieval.ChunkSet(commitment, received)
                )
            except BadCode as signal:
                result = signal
        rec.retrieve_s.append(retrieve.seconds)

        self.digest.update(serialize.encode_commitment(commitment))
        if isinstance(result, BadCode):
            ok = self._bad_code(rec, result, keep)
        elif isinstance(result, retrieval.Block) and result.data == block:
            ok = True
            self.digest.update(result.data)
        else:
            ok = False
        if not ok:
            rec.failure = WRONG_OUTCOME
        if account:
            rec.known_fraction = [len(keep) / m]
            rec.wire_bytes = len(serialize.encode_commitment(commitment)) + len(bundle)
            rec.stored_bytes = float(rec.wire_bytes)
        return rec


def first_stall(geometry: Geometry, received) -> Optional[tuple[int, frozenset]]:
    """Where peeling from the base chunks ``received`` first stops: the
    layer and its unknown symbols, or None when every layer peels whole.

    Worked out from the benchmark's inputs alone, as the package's reader
    goes: the layers top down, each peeled with its parity checks until no
    check holds exactly one unknown symbol. A layer's known symbols are
    those the received chunks' proofs carry: on the base the chunks
    themselves; above it, for a layer of m symbols of which s = rate*m are
    systematic, the samples i mod s and s + i mod (m - s) of each chunk i.
    """
    params = geometry.params
    sizes = params.layer_sizes(geometry.block_size)
    depth = len(sizes) - 1
    base = np.unique(np.asarray(received, dtype=np.int64))
    for u in range(1, depth + 1):
        m = sizes[u]
        if u == depth:
            known = set(base.tolist())
        else:
            s = int(params.rate * m)
            known = set((base % s).tolist()) | set((s + base % (m - s)).tolist())
        unknown = set(range(m)) - known
        checks = [eq.symbol_indices for eq in cit.layer_code(params, m).parity_checks]
        progress = True
        while progress and unknown:
            progress = False
            for members in checks:
                left = unknown.intersection(members)
                if len(left) == 1:
                    unknown -= left
                    progress = True
        if unknown:
            return u, frozenset(unknown)
    return None


def same_stall(geometry: Geometry, signal: BadCode, received) -> bool:
    """True when ``signal`` names the stall of ``first_stall`` and at least
    1 - alpha of that layer is known, so the package owed a ``BadCode``
    rather than a report of too few chunks."""
    stall = first_stall(geometry, received)
    if stall is None:
        return False
    layer, unknown = stall
    m = geometry.params.layer_sizes(geometry.block_size)[layer]
    return (
        signal.layer == layer
        and signal.layer_size == m
        and signal.unknown == unknown
        and (m - len(unknown)) / m >= 1 - geometry.params.alpha
    )


def make(name: str, seed: int, geometry: Optional[Geometry] = None) -> Workload:
    geo = geometry or GEOMETRIES[name]
    if name == "honest_round":
        return RoundWorkload(geo, seed, fraud=False)
    if name == "fraud_round":
        return RoundWorkload(geo, seed, fraud=True)
    if name == "bulk_block":
        return BulkWorkload(geo, seed)
    raise KeyError(name)


def closed_forms(geometry: Geometry) -> dict:
    """``storage_cost`` X, ``communication_cost`` N*X and
    ``fraud_proof_cost`` P for the geometry, in bytes."""
    cp = geometry.cost_params()
    return {
        "storage_cost_X": metrics.storage_cost(cp),
        "communication_cost_NX": metrics.communication_cost(cp),
        "fraud_proof_cost_P": metrics.fraud_proof_cost(cp),
    }
