"""What the traced run wraps, and the per-layer metrics made from it.

Each wrapped name is a module attribute its caller looks up at call time,
so the lookup site tells callers apart: ``cit.walk_pom`` is reached from
``verify_symbol`` (node verification), ``retrieval.walk_pom`` from client
ingest. Times are seconds per operation (the median over traced
operations) unless the name says otherwise; ``_calls`` counts are totals
over the traced operations and set-up, and repeat exactly for one seed.
"""

from __future__ import annotations

from collections import defaultdict

from .stats import median, tail
from .tracing import Wrap, children_of, self_time


def _code_size(code, *_args, **_kwargs):
    return code.n_coded


def _parent_size(_child, parent_size, *_args, **_kwargs):
    return parent_size


WRAPS = (
    # codec, reached through cit (the gate and the tree) and oracle
    Wrap("daoracle.cit", "is_bad_code"),
    Wrap("daoracle.cit", "encode_array", label=_code_size),
    Wrap("daoracle.oracle", "encode_array", label=_code_size),
    # cit
    Wrap("daoracle.cit", "build_tree"),
    Wrap("daoracle.oracle", "build_tree"),
    Wrap("daoracle.oracle", "build_tree_with_base_corruption"),
    Wrap("daoracle.cit", "aggregate", label=_parent_size),
    Wrap("daoracle.oracle", "aggregate", label=_parent_size),
    Wrap("daoracle.cit", "sample_pom"),
    Wrap("daoracle.oracle", "sample_pom"),
    Wrap("daoracle.cit", "walk_pom"),
    Wrap("daoracle.retrieval", "walk_pom"),
    Wrap("daoracle.retrieval", "verify_membership", kind="count"),
    Wrap("daoracle.cit", "TreeParams.layer_sizes", kind="count"),
    Wrap("daoracle.cit", "sha256", kind="count"),
    Wrap("daoracle.retrieval", "sha256", kind="count"),
    Wrap("daoracle.oracle", "sha256", kind="count"),
    # oracle
    Wrap("daoracle.oracle", "messages_for_tree"),
    Wrap("daoracle.oracle", "node_on_dispersal"),
    Wrap("daoracle.oracle", "chain_submit_votes"),
    Wrap("daoracle.oracle", "gather_units"),
    # retrieval
    Wrap("daoracle.oracle", "reconstruct"),
    Wrap("daoracle.retrieval", "reconstruct"),
    Wrap("daoracle.oracle", "verify_fraud_proof"),
    # serialize
    Wrap("daoracle.serialize", "encode_chunk_bundle"),
    Wrap("daoracle.serialize", "decode_chunk_bundle"),
)

SETUP = "setup"  # operation id of the code generation and gating in set-up

ENCODE = ("cit.encode_array", "oracle.encode_array")
AGGREGATE = ("cit.aggregate", "oracle.aggregate")
BUILD = ("cit.build_tree", "oracle.build_tree", "oracle.build_tree_with_base_corruption")
RECONSTRUCT = ("oracle.reconstruct", "retrieval.reconstruct")

# per-operation time metric -> span names summed (all durations)
SUMS = {
    "codec.encode_s": ENCODE,
    "cit.aggregate_s": AGGREGATE,
    "cit.sample_pom_s": ("cit.sample_pom", "oracle.sample_pom"),
    "cit.walk_pom_s": ("cit.walk_pom", "retrieval.walk_pom"),
    "cit.walk_pom_node_s": ("cit.walk_pom",),
    "retrieval.ingest_s": ("retrieval.walk_pom",),
    "retrieval.reconstruct_s": RECONSTRUCT,
    "retrieval.verify_fraud_proof_s": ("oracle.verify_fraud_proof",),
    "oracle.messages_for_tree_s": ("oracle.messages_for_tree",),
    "oracle.node_verify_total_s": ("oracle.node_on_dispersal",),
    "oracle.chain_submit_votes_s": ("oracle.chain_submit_votes",),
    "oracle.gather_units_s": ("oracle.gather_units",),
    "serialize.encode_s": ("serialize.encode_chunk_bundle",),
    "serialize.decode_s": ("serialize.decode_chunk_bundle",),
}
# counter metric -> wrapped names whose calls it totals
COUNTS = {
    "cit.sample_pom_calls": ("cit.sample_pom", "oracle.sample_pom"),
    "cit.walk_pom_calls": ("cit.walk_pom", "retrieval.walk_pom"),
    "cit.verify_membership_calls": ("retrieval.verify_membership",),
    "cit.layer_sizes_calls": ("cit.TreeParams.layer_sizes",),
    "sha256_calls.cit": ("cit.sha256",),
    "sha256_calls.retrieval": ("retrieval.sha256",),
    "sha256_calls.oracle": ("oracle.sha256",),
}
# metric -> the wrapped names it cannot be computed without
NEEDS = {
    **SUMS,
    **COUNTS,
    "codec.gate_s": ("cit.is_bad_code",),
    "codec.gated_codes": ("cit.is_bad_code",),
    "cit.build_tree_self_s": BUILD + ENCODE,
    "retrieval.decode_s": RECONSTRUCT + ("retrieval.walk_pom",),
    "oracle.node_verify_s": ("oracle.node_on_dispersal",),
    "oracle.node_verify_s_tail": ("oracle.node_on_dispersal",),
}


def _base(name: str) -> str:
    return name.split("[", 1)[0]


def layer_metrics(tracer, factor) -> tuple[dict, list]:
    """Per-layer metrics from a finished traced run, and the metrics that
    cannot be computed because a wrapped name is missing. ``factor(t0, t1)``
    converts wall seconds over [t0, t1] to reported seconds.

    A metric whose spans never occurred (the workload does not use that
    layer) is left out; counters are always reported.
    """
    spans = tracer.spans()
    children = children_of(spans)
    per_op = defaultdict(lambda: defaultdict(float))  # op -> metric -> seconds
    node_calls = []
    gate = []
    for i, s in enumerate(spans):
        base = _base(s.name)
        scale = factor(s.start, s.end)
        duration = s.duration * scale
        if s.op == SETUP:
            if base == "cit.is_bad_code":
                gate.append(duration)
            continue
        acc = per_op[s.op]
        for metric, names in SUMS.items():
            if base in names:
                acc[metric] += duration
                if base in ENCODE + AGGREGATE:
                    acc[f"{metric}[{s.name.split('[', 1)[1]}"] += duration
        if base in BUILD:
            acc["cit.build_tree_self_s"] += scale * self_time(
                spans, children, i, only=lambda n: _base(n) in ENCODE
            )
        elif base in RECONSTRUCT:
            acc["retrieval.decode_s"] += scale * self_time(spans, children, i)
        elif base == "oracle.node_on_dispersal":
            node_calls.append(duration)

    out = {}
    if gate:
        out["codec.gate_s"] = sum(gate)
        out["codec.gated_codes"] = len(gate)
    names = sorted({m for acc in per_op.values() for m in acc})
    for metric in names:
        out[metric] = median([acc.get(metric, 0.0) for acc in per_op.values()])
    if node_calls:
        out["oracle.node_verify_s"] = median(node_calls)
        value, pct, beyond = tail(node_calls)
        out["oracle.node_verify_s_tail"] = value
        out["oracle.node_verify_s_tail.percentile"] = pct
        out["oracle.node_verify_s.samples"] = len(node_calls)
    for metric, wrapped in COUNTS.items():
        out[metric] = sum(tracer.counts[w] for w in wrapped)

    missing = sorted(m for m, wrapped in NEEDS.items() if set(wrapped) & set(tracer.missing))
    for metric in missing:
        out.pop(metric, None)
    return out, missing
