"""Reference storage reads: every answer scans all that a node holds.

``node_on_retrieval`` sorts a node's whole ``stored`` map and keeps the
units of one commitment key; ``gather_units`` merges those answers over the
nodes, first answer wins; ``pooled_units`` is the pooling step of
``oracle.bad_code_round``, which merges every node's stored units of the key
whatever the node's behavior. The package reads one key's units through
``OracleNode.units`` and must return the same units in the same order.
"""

from __future__ import annotations

from daoracle.oracle import Behavior


def node_on_retrieval(node, key: bytes) -> tuple:
    if node.behavior in (Behavior.SILENT, Behavior.WITHHOLD_AFTER_VOTE):
        return ()
    return tuple(
        (idx, symbol, pom)
        for (k, _), (idx, symbol, pom) in sorted(node.stored.items())
        if k == key
    )


def gather_units(nodes, key: bytes) -> tuple:
    units: dict[int, tuple] = {}
    for node in nodes:
        for idx, symbol, pom in node_on_retrieval(node, key):
            units.setdefault(idx, (idx, symbol, pom))
    return tuple(units[i] for i in sorted(units))


def pooled_units(nodes, key: bytes) -> tuple:
    pooled: dict[int, tuple] = {}
    for node in nodes:
        for (k, _), (idx, symbol, pom) in node.stored.items():
            if k == key:
                pooled.setdefault(idx, (idx, symbol, pom))
    return tuple(pooled[i] for i in sorted(pooled))
