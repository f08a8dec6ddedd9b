"""Shared fixtures: the small reference geometry and a couple of helpers."""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from daoracle import _kernels as kn
from daoracle import simnet
from daoracle.cit import CodedTree, TreeParams, build_tree, sample_pom
from daoracle.codec import CodeSpec, ParityEquation
from daoracle.retrieval import ChunkSet
from fraction_geometry import pom_pairs

# 8 systematic base symbols at rate 1/4, batch 8, 4-digest root:
# coded layers 32 / 16 / 8 over a root of 4.
SMALL = dict(
    symbol_size=64,
    root_size=4,
    rate=Fraction(1, 4),
    batch=8,
    max_eq_degree=8,
    alpha=0.125,
    code_seed=5,
)

# tree code_seed whose derived base code (k=8, n=32) has the 4-symbol
# stopping set {0, 3, 4, 5}; found by exhaustive subset search, re-verified
# in the tests that use it
BAD_BASE_CODE_SEED = 6
BAD_BASE_STOPPING_SET = (0, 3, 4, 5)


def code_of(equations, n_coded: int) -> CodeSpec:
    """A hand-built code over ``n_coded`` symbols whose parity equations
    are ``equations``, index sequences ascending, for the peel and the
    alpha gate, which read only those two: its systematic count and seed
    are 0."""
    return CodeSpec(0, n_coded, 0, tuple(map(ParityEquation, equations)))


def planted_weak_code() -> CodeSpec:
    """Adversarial construction: systematic symbols 1..63 each appear in
    exactly one degree-2 equation, so every {i, 64 + i} is a stopping set
    of 2 of the 256 symbols."""
    k, n = 64, 256
    eqs = [(i, k + i) for i in range(k)] + [(0, k + k + j) for j in range(n - 2 * k)]
    return code_of(eqs, n)


def code_to_text(code: CodeSpec) -> str:
    """A code's canonical text form, which the pinned code digests of
    ``test_peel`` and ``test_codec`` hash: one parity equation per line,
    its member indices space-separated ascending, the lines sorted
    lexicographically, each ending in a newline. No package code writes or
    reads this form; it exists only to pin codes in the tests."""
    lines = sorted(" ".join(map(str, eq)) for eq in code.parity_checks)
    return "\n".join(lines) + "\n"


def peel_rows(code: CodeSpec, sym, known):
    """Solve-in-turn decode of the uint8 rows ``sym`` of ``code`` on the
    package's peeling engine, ``_kernels.Peel`` with ``xor_members``, driven
    over values as retrieval drives it. Rows not in the bool array
    ``known`` are overwritten as they are solved, and ``known`` is updated,
    in place.
    Returns ("decoded", -1), ("stuck", -1) or ("violation", the first
    failing equation under ``Peel.steps``)."""
    rows = [row.copy() if k else None for row, k in zip(sym, known)]
    peel = kn.Peel(code, np.flatnonzero(~known).tolist())
    outcome = None
    for e, x in peel.steps():
        acc = kn.xor_members(rows, code.parity_checks[e], x)
        if x >= 0:
            rows[x] = acc
            peel.solve(x)
        elif acc.any():
            outcome = "violation", e
            break
    known[:] = np.frombuffer(bytes(peel.known), dtype=np.uint8).astype(bool)
    for i, row in enumerate(rows):
        if row is not None:
            sym[i] = row
    return outcome or (("decoded" if known.all() else "stuck"), -1)


@pytest.fixture(scope="session")
def small_params() -> TreeParams:
    return TreeParams(**SMALL)


@pytest.fixture(scope="session")
def small_block() -> bytes:
    return bytes((i * 37 + 11) % 256 for i in range(512))


@pytest.fixture(scope="session")
def small_tree(small_block, small_params) -> CodedTree:
    return build_tree(small_block, small_params)


def chunkset_for(tree: CodedTree, indices) -> ChunkSet:
    poms = [sample_pom(tree, i) for i in sorted(set(indices))]
    return ChunkSet(tree.commitment, tuple((pom.base_index, pom.base_symbol, pom) for pom in poms))


def ingested(frontier) -> dict:
    """Each certified symbol of ``frontier.rows(u)``, by (layer, index):
    what a ``retrieval._Reconstructor`` peels its layers from."""
    return {
        (u, x): symbol
        for u in range(len(frontier.held))
        for x, symbol in enumerate(frontier.rows(u))
        if symbol is not None
    }


def flipping(flips):
    """A ``build_tree`` tamper hook that XORs each mask of {layer: [(index,
    mask), ...]} into the first byte of symbol index mod m of that layer."""

    def tamper(u, symbols, _code):
        for index, mask in flips.get(u, ()):
            symbols[index % len(symbols), 0] ^= mask

    return tamper


def voted_commitments(monkeypatch) -> list:
    """The commitment of each round ``simnet.run_scenario`` runs from here
    on, in round order, as each reaches ``chain_submit_votes``."""
    seen, original = [], simnet.orc.chain_submit_votes

    def spy(chain, commitment, votes):
        seen.append(commitment)
        return original(chain, commitment, votes)

    monkeypatch.setattr(simnet.orc, "chain_submit_votes", spy)
    return seen


def random_geometries(count=3, seed=20240501):
    """Valid (root_size, rate, batch, levels) draws for the index
    arithmetic property checks."""
    rng = np.random.default_rng(seed)
    picks = []
    options = [
        (2, Fraction(1, 2), 4),
        (3, Fraction(1, 3), 9),
        (4, Fraction(1, 4), 8),
        (6, Fraction(1, 2), 6),
        (4, Fraction(1, 2), 8),
    ]
    while len(picks) < count:
        t, r, q = options[rng.integers(0, len(options))]
        levels = int(rng.integers(2, 5))
        picks.append((t, r, q, levels))
    return picks


def sizes_for(root_size, rate, batch, levels):
    """Coded layer sizes root->base for `levels` coded layers below root."""
    shrink = batch * rate
    sizes = [root_size]
    for _ in range(levels):
        sizes.append(int(sizes[-1] * shrink))
    return sizes


def params_for(root_size, rate, batch) -> TreeParams:
    """Tree params of one-byte symbols at this root size, rate and batch."""
    return TreeParams(
        symbol_size=1, root_size=root_size, rate=rate, batch=batch,
        max_eq_degree=8, alpha=0.1,
    )


def pairs_table(root_size, rate, batch, levels) -> np.ndarray:
    """(base size, levels - 1, 2) int array whose row i is the reference
    ``fraction_geometry.pom_pairs`` of base index i over
    ``sizes_for(root_size, rate, batch, levels)``."""
    sizes = sizes_for(root_size, rate, batch, levels)
    params, m = params_for(root_size, rate, batch), sizes[-1]
    pairs = [pom_pairs(params, sizes, i) for i in range(m)]
    return np.array(pairs, dtype=np.int64).reshape(m, levels - 1, 2)


def covered_layers(table: np.ndarray, base_indices) -> list[set[int]]:
    """Index sets the proofs of ``base_indices`` sample at layers depth-1
    down to 1, read from ``pairs_table``."""
    rows = table[np.asarray(list(base_indices), dtype=np.int64)]
    return [set(rows[:, j].ravel().tolist()) for j in range(table.shape[1])]
