"""The peeling engine against the peelers it replaced
(``tests/reference_peel.py``): reconstructions, value decodes on the
engine (``conftest.peel_rows``) and the alpha gate give the same answers,
and the gate accepts the same codes.

Reconstructions run on trees whose layers, the root layer included,
violate their codes at random places, from random chunk subsets, and on a
code with a planted stopping set, so every outcome kind occurs; two trees'
base symbols are wider than ``_kernels.INT_VALUE_MAX_BYTES`` and one's are
exactly that wide, so both value forms of the peel, Python ints and uint8
rows, meet the reference, on both sides of the switch between them.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_peel as ref
from daoracle import _kernels as kn
from daoracle import cit, codec, retrieval as rt, simnet
from daoracle.errors import BadCode
from daoracle.serialize import decode_fraud_proof, encode_fraud_proof

from conftest import (
    BAD_BASE_CODE_SEED, BAD_BASE_STOPPING_SET, SMALL, chunkset_for, code_to_text, flipping,
    code_of, ingested, peel_rows, planted_weak_code,
)
from test_kernels import closes, visits

# SMALL's layers with base symbols wider than the peel XORs as ints, so
# its base layer peels as uint8 rows and its digest layers as ints
WIDE_PARAMS = cit.TreeParams(**{**SMALL, "symbol_size": 2 * kn.INT_VALUE_MAX_BYTES})

# SMALL (layers 32/16/8/4 at rate 1/4); the same with an ungated code that
# has a planted stopping set in its base layer; a rate-1/2 family whose
# top layers (4 and 2 symbols) are k <= 2 repetition codes; WIDE_PARAMS,
# its last systematic symbol padded; and SMALL's layers on either side of
# the switch between value forms: the widest symbols that peel as ints,
# and one byte wider, an odd width that peels as uint8 rows
PARAMS = (
    cit.TreeParams(**SMALL),
    cit.TreeParams(**{**SMALL, "code_seed": BAD_BASE_CODE_SEED, "gate_trials": 0}),
    cit.TreeParams(
        symbol_size=16, root_size=2, rate=Fraction(1, 2), batch=4, max_eq_degree=5,
        alpha=0.1, code_seed=3, gate_trials=8,
    ),
    WIDE_PARAMS,
    cit.TreeParams(**{**SMALL, "symbol_size": kn.INT_VALUE_MAX_BYTES}),
    cit.TreeParams(**{**SMALL, "symbol_size": kn.INT_VALUE_MAX_BYTES + 1}),
)
BLOCK_LENS = (
    512, 512, 250, 8 * WIDE_PARAMS.symbol_size - 100,
    8 * kn.INT_VALUE_MAX_BYTES, 8 * (kn.INT_VALUE_MAX_BYTES + 1) - 7,
)


def outcome(reconstructor):
    """What a reconstruction returns or raises, in comparable form."""
    try:
        out = reconstructor.run()
    except BadCode as err:
        return ("bad code", str(err), err.layer, err.layer_size, err.known_fraction,
                err.unknown, err.code_seed)
    if isinstance(out, rt.Fraud):
        return ("fraud", encode_fraud_proof(out.proof))
    if isinstance(out, rt.Block):
        return ("block", out.data)
    return ("insufficient", out.known_fractions)


def both(which, flips, keep):
    """Run the engine's and the reference reconstructor on one case."""
    params, block_len = PARAMS[which], BLOCK_LENS[which]
    block = bytes((i * 37 + 11) % 256 for i in range(block_len))
    tree = cit.build_tree(block, params, flipping(flips))
    chunks = chunkset_for(tree, keep)
    new = rt._Reconstructor(tree.commitment, chunks)
    old = ref.Reconstructor(tree.commitment, params, chunks)
    assert ingested(new.frontier) == old.values
    return outcome(new), outcome(old), tree


def make_case(pick):
    """One reconstruction case, from ``pick(lo, hi)`` returning an int in
    [lo, hi]: a parameter set, up to three flipped symbols at random
    layers, and a chunk subset (for the planted code, often everything
    outside its stopping set)."""
    which = pick(0, len(PARAMS) - 1)
    geo = cit.geometry(PARAMS[which], BLOCK_LENS[which])
    flips = {}
    for _ in range(pick(0, 3)):
        u = pick(0, geo.depth)
        flips.setdefault(u, []).append((pick(0, geo.sizes[u] - 1), pick(1, 255)))
    n = geo.sizes[geo.depth]
    if which == 1 and pick(0, 1):
        keep = {i for i in range(n) if i not in BAD_BASE_STOPPING_SET}
    else:
        keep = {pick(0, n - 1) for _ in range(pick(1, 2 * n))}
    return which, flips, sorted(keep)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reconstruction_matches_the_reference(data):
    case = make_case(lambda lo, hi: data.draw(st.integers(lo, hi)))
    new, old, _ = both(*case)
    assert new == old


def test_reconstruction_cases_reach_every_outcome():
    """A seeded sweep over the same cases meets every outcome kind and both
    fraud flavours, at the root layer as below it, a block and a base
    fraud peeled as uint8 rows, and a block at each width next to the
    switch between value forms, all equal to the reference, and every
    fraud proof verifies."""
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(200):
        case = make_case(lambda lo, hi: int(rng.integers(lo, hi + 1)))
        new, old, tree = both(*case)
        assert new == old
        kind, *rest = new
        width = PARAMS[case[0]].symbol_size
        wide = width > kn.INT_VALUE_MAX_BYTES
        if kind == "fraud":
            proof = decode_fraud_proof(rest[0])
            assert rt.verify_fraud_proof(tree.commitment, tree.commitment.params, proof)
            kind = "equation fraud" if proof.mismatch is None else "mismatch fraud"
            if proof.layer == 0:
                seen.add("root fraud")
            if wide and proof.layer == len(tree.layers) - 1:
                seen.add("wide base fraud")
        if wide and kind == "block":
            seen.add("wide block")
        if kind == "block":
            seen.add(f"block at width {width}")
        seen.add(kind)
    assert seen >= {
        "block", "equation fraud", "mismatch fraud", "insufficient", "bad code", "root fraud",
        "wide block", "wide base fraud",
        f"block at width {kn.INT_VALUE_MAX_BYTES}", f"block at width {kn.INT_VALUE_MAX_BYTES + 1}",
    }


@st.composite
def decode_cases(draw):
    k = draw(st.integers(1, 12))
    rate = draw(st.sampled_from(("1/2", "1/3", "1/4")))
    code = codec.generate_code(k, rate, draw(st.integers(2, 8)), seed=draw(st.integers(0, 2**32)))
    width = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    sym = codec.encode_array(code, rng.integers(0, 256, size=(k, width), dtype=np.uint8))
    for _ in range(draw(st.integers(0, 2))):
        sym[draw(st.integers(0, code.n_coded - 1)), 0] ^= draw(st.integers(1, 255))
    known = np.zeros(code.n_coded, dtype=bool)
    known[sorted(draw(st.sets(st.integers(0, code.n_coded - 1))))] = True
    sym[~known] = 0
    return code, sym, known


@settings(max_examples=200, deadline=None)
@given(decode_cases())
def test_peel_decode_matches_the_reference(case):
    """The engine's value decode and the reference's end in the same
    outcome and equation, with the same rows known and the same values."""
    code, sym, known = case
    new_sym, new_known = sym.copy(), known.copy()
    new = peel_rows(code, new_sym, new_known)
    assert new == ref.peel_decode(code, sym, known)
    assert np.array_equal(new_known, known) and np.array_equal(new_sym, sym)


@st.composite
def equation_systems(draw):
    """Random equation systems, stopping sets and all: n symbols, each
    equation a sorted set of 2..5 of them."""
    n = draw(st.integers(2, 24))
    eqs = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=min(5, n)).map(sorted),
        min_size=1, max_size=2 * n,
    ))
    return n, eqs


@settings(max_examples=200, deadline=None)
@given(equation_systems(), st.randoms(use_true_random=False))
def test_first_fail_count_matches_the_binary_search(system, rnd):
    """The engine stalls after erasing perm[:e] iff the batched reference
    peel does, for every e; so stalling is monotone in e, which the alpha
    gate's one threshold peel per trial rests on, and the first stalling e
    is the one the reference binary search finds. The engine steps alike
    from the unsorted ``perm[:e]``, as ``codec.is_bad_code`` passes it, and
    from its sorted copy."""
    n, eqs = system
    code = code_of(eqs, n)
    eq_ptr = np.cumsum([0] + [len(eq) for eq in eqs]).astype(np.int32)
    eq_idx = np.array([i for eq in eqs for i in eq], dtype=np.int32)
    perm = list(range(n))
    rnd.shuffle(perm)
    stalls = []
    for e in range(n + 1):
        known = np.ones(n, dtype=np.bool_)
        known[perm[:e]] = False
        stalls.append(not closes(code, known))
        assert stalls[-1] == (not ref.peel_pattern(eq_ptr, eq_idx, known))
        walk = visits(code, perm[:e])
        assert walk == visits(code, sorted(perm[:e]))
        assert walk[1] != stalls[-1]
    assert stalls == sorted(stalls)
    want = ref.first_fail_count(eq_ptr, eq_idx, np.array(perm, dtype=np.int64))
    assert stalls.index(True) == want


@st.composite
def gate_cases(draw):
    """(code, alpha, trials, rng seed): random codes, k <= 2 repetition
    codes, the planted weak code and the SMALL base code with a planted
    stopping set; alpha is e / n exactly, or one float step to either side
    of it, where rounding would move a threshold taken from alpha * n, for
    e mostly next to the smallest stalling erasure count of the trials,
    where the verdict turns."""
    kind = draw(st.sampled_from(("random", "repetition", "weak", "planted")))
    if kind == "weak":
        code = planted_weak_code()
    elif kind == "planted":
        code = cit.layer_code(PARAMS[1], 32)
    else:
        k = draw(st.integers(1, 2) if kind == "repetition" else st.integers(3, 40))
        code = codec.generate_code(
            k, draw(st.sampled_from(("1/2", "1/3", "1/4"))), draw(st.integers(2, 8)),
            seed=draw(st.integers(0, 2**64 - 1)),
        )
    n, trials, seed = code.n_coded, draw(st.integers(1, 8)), draw(st.integers(0, 2**64 - 1))
    least = round(ref.estimate_undecodable_ratio(code, trials, seed).ratio * n)
    e = draw(st.one_of(st.integers(max(0, least - 1), min(n, least + 1)), st.integers(0, n)))
    at = e / n
    alpha = draw(st.sampled_from((at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf))))
    return code, alpha, trials, seed


@settings(max_examples=200, deadline=None)
@given(gate_cases())
def test_gate_verdicts_match_the_reference(case):
    """One threshold peel per trial decides as the exact smallest stalling
    fraction over the same trials does."""
    code, alpha, trials, seed = case
    assert codec.is_bad_code(code, alpha, trials, seed) == ref.is_bad_code(
        code, alpha, trials, seed
    )


def family(symbol_size):
    """The benchmark's code family (rate 1/4, q=8, d=8, alpha=0.125, t=4,
    code_seed 11, 24 gate trials) at one symbol width."""
    return cit.TreeParams(
        symbol_size=symbol_size, root_size=4, rate=Fraction(1, 4), batch=8,
        max_eq_degree=8, alpha=0.125, code_seed=11, gate_trials=24,
    )


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# (layer size, accepted seed, sha256 of code_to_text) of the accepted code
# of every layer of these families, as the binary-search gate chose them
ACCEPTED = (
    (4, 3669650791690233857, "b2a1a891691e049e"),
    (8, 9192786937861422182, "50624b72774d5c32"),
    (16, 2746069879467507600, "0d96e096068d1624"),
    (32, 1875988747941246853, "9952dbc0b760ad6f"),
    (64, 6508792316999872945, "6ce4304f33341276"),
    (128, 2874298634308852012, "f5214f6d03cafe67"),
    (256, 5223536998505965672, "b0e822cadd9cd664"),
    (512, 6132243299640791353, "0ac0d4803f6b01d2"),
    (1024, 3707653584493072211, "08005df54a05795f"),
)


def scenario_tree(name):
    config = simnet.config_from_dict(json.loads((SCENARIOS / name).read_text()))
    return config.tree, config.block_size


@pytest.mark.parametrize(
    "params, block_len",
    [
        scenario_tree("all_honest.json"),
        scenario_tree("invalid_coding.json"),
        (family(1024), 256 * 1024),
        (family(64 * 1024), 16 * 1024 * 1024),
    ],
    ids=["all_honest", "invalid_coding", "round", "bulk"],
)
def test_gate_accepts_the_same_codes(params, block_len):
    sizes = cit.geometry(params, block_len).sizes
    got = []
    for m in sizes:
        code = cit.layer_code(params, m)
        digest = hashlib.sha256(code_to_text(code).encode()).hexdigest()
        got.append((m, code.seed, digest[:16]))
    assert got == [row for row in ACCEPTED if row[0] in sizes]
