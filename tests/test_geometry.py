"""Integer tree geometry against the Fraction reference, and the proof walk
it drives: honest proofs pass, every single-field mutation fails, and no
Fraction is built or multiplied once the geometry is cached."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_geometry as ref
from daoracle import cit
from daoracle import retrieval as rt
from daoracle.errors import BadCode, ParameterError
from daoracle.oracle import build_tree_with_base_corruption

from conftest import SMALL, chunkset_for
from hostile import time_bound

RATES = (
    Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(3, 4),
    Fraction(1, 5), Fraction(1, 8),
)
BATCHES = (2, 3, 4, 5, 6, 8, 9, 10, 16)
ROOT_SIZES = (1, 2, 3, 4, 6)
SYMBOL_SIZE = 3
# base systematic counts 1..240 and every 2^a 3^b 5^c up to 20000 (these
# are where the deeper trees of the grid are valid), each as a block that
# needs padding (its last symbol one byte short) except for 1-symbol blocks
SYMBOL_COUNTS = sorted(
    set(range(1, 241))
    | {2**a * 3**b * 5**c for a in range(15) for b in range(10) for c in range(7)
       if 2**a * 3**b * 5**c <= 20000}
)
BLOCK_LENS = tuple(n * SYMBOL_SIZE - (n > 1) for n in SYMBOL_COUNTS)


def grid_params():
    for rate in RATES:
        for batch in BATCHES:
            knobs = dict(
                symbol_size=SYMBOL_SIZE, rate=rate, batch=batch, max_eq_degree=4, alpha=0.1
            )
            e = rate.denominator
            if rate.numerator != 1 or batch <= e or batch % e:
                # no layer code exists for these: TreeParams itself rejects them
                with pytest.raises(ParameterError):
                    cit.TreeParams(root_size=1, **knobs)
                continue
            for root in ROOT_SIZES:
                yield cit.TreeParams(root_size=root, **knobs)


def reference_outcome(params, block_len):
    try:
        return ref.layer_sizes(params, block_len)
    except ParameterError as exc:
        return str(exc)


REFERENCE_ERRORS = (
    "block must be non-empty",
    "layer sizes must stay integral",
    "never land on root_size",
    "non-integral systematic count",
)


@pytest.fixture
def uncapped(monkeypatch):
    """Lift the base-symbol cap, so that the grid's deep trees (up to 2^16
    base symbols) are checked against the reference too; the cap has its
    own tests."""
    cit._geometry.cache_clear()
    monkeypatch.setattr(cit, "MAX_BASE_SYMBOLS", 1 << 20)
    yield
    cit._geometry.cache_clear()


def test_geometry_matches_the_fraction_reference_on_a_grid(uncapped):
    valid, errors = 0, set()
    for params in grid_params():
        for block_len in (0,) + BLOCK_LENS:
            want = reference_outcome(params, block_len)
            if isinstance(want, str):
                with pytest.raises(ParameterError) as info:
                    cit.geometry(params, block_len)
                assert str(info.value) == want, (params, block_len)
                errors.update(kind for kind in REFERENCE_ERRORS if kind in want)
                continue
            geo = cit.geometry(params, block_len)
            assert geo.sizes == want, (params, block_len)
            assert geo.sys_counts == tuple(ref.sys_count(params, m) for m in want)
            assert geo.depth == len(want) - 1
            assert params.layer_sizes(block_len) == want
            valid += 1
    # the grid must reach every reference error and many valid trees
    assert errors == set(REFERENCE_ERRORS)
    assert valid >= 100


U32_MAX = 2**32 - 1


def u32s(lo=1, hi=U32_MAX):
    """u32 values in [lo, hi], small ones and hi favoured."""
    return st.one_of(
        st.integers(lo, min(hi, lo + 4)), st.integers(lo, min(hi, lo + 40)),
        st.integers(lo, hi), st.just(hi),
    )


@st.composite
def u32_shapes(draw):
    """(tree knobs, block_len) with the rate, batch and root size drawn from
    the u32 fields a DAC2 file carries them in. Most draws are
    shapes: rate 1/e, batch and root multiples of e and a block that
    fills a base of root * (batch / e)^levels symbols, whose sizes are all
    integral, so that only the base cap can reject them."""
    e = draw(u32s(2))
    symbol_size = draw(st.integers(1, 1024))
    if U32_MAX // e < 2 or not draw(st.integers(0, 3)):
        rate, batch, root = Fraction(draw(u32s()), e), draw(u32s()), draw(u32s())
        block_len = draw(st.integers(1, 2**64 - 1))
    else:
        rate, batch = Fraction(1, e), e * draw(u32s(2, U32_MAX // e))
        root = e * draw(u32s(1, U32_MAX // e))
        base = root * (batch // e) ** draw(st.integers(0, 12))
        block_len = base // e * symbol_size - draw(st.integers(0, symbol_size - 1))
    knobs = dict(
        symbol_size=symbol_size, root_size=root, rate=rate, batch=batch,
        max_eq_degree=8, alpha=0.125,
    )
    return knobs, block_len


@settings(max_examples=300, deadline=None)
@given(u32_shapes())
@example(  # rate 1/4097 and root size 4097: 32776 base symbols over 512 bytes
    (dict(symbol_size=64, root_size=4097, rate=Fraction(1, 4097), batch=8194,
          max_eq_degree=8, alpha=0.125), 512)
)
@example(  # the README params over 2^30 bytes: 2^26 base symbols
    (dict(symbol_size=64, root_size=4, rate=Fraction(1, 4), batch=8,
          max_eq_degree=8, alpha=0.125), 1 << 30)
)
def test_no_admitted_geometry_exceeds_the_base_cap(shape):
    knobs, block_len = shape
    with time_bound(1.0):
        try:
            geo = cit.geometry(cit.TreeParams(**knobs), block_len)
        except ParameterError:
            return
    assert max(geo.sizes) <= cit.MAX_BASE_SYMBOLS


def test_layer_code_uses_the_integer_systematic_count():
    params = cit.TreeParams(**SMALL)
    for m in cit.geometry(params, 512).sizes:
        assert cit.layer_code(params, m).n_systematic == ref.sys_count(params, m)
    with pytest.raises(ParameterError):
        cit.layer_code(params, 30)  # 30 / 4 is not integral


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(1, 3), den=st.integers(2, 6), mult=st.integers(1, 3),
    degree=st.integers(1, 6), root_mult=st.integers(1, 2), levels=st.integers(1, 3),
    symbol_size=st.integers(1, 3), pad=st.integers(0, 2),
)
# rate 2/3 at batch 3 shrinks each layer by the integer 2 (base 6, root 3)
# and a degree cap of 1 is a plain int, but no layer code exists for either
@example(num=2, den=3, mult=1, degree=4, root_mult=1, levels=1, symbol_size=1, pad=0)
@example(num=1, den=2, mult=2, degree=1, root_mult=1, levels=1, symbol_size=1, pad=0)
def test_admitted_params_always_have_layer_codes(
    num, den, mult, degree, root_mult, levels, symbol_size, pad
):
    # the batch and the root size are multiples of den, and the block fills
    # a base of root * (batch * rate)^levels coded symbols, so that most
    # draws of any rate num/den have a valid geometry
    rate = Fraction(num, den)
    batch, root = den * mult, den * root_mult
    n_sys = root * (batch * rate) ** levels * rate
    try:
        params = cit.TreeParams(
            symbol_size=symbol_size, root_size=root, rate=rate, batch=batch,
            max_eq_degree=degree, alpha=0.1, gate_trials=2, max_code_attempts=2,
        )
        geo = cit.geometry(params, int(n_sys) * symbol_size - pad % symbol_size)
    except ParameterError:
        return
    for m in geo.sizes:
        try:
            code = cit.layer_code(params, m)
        except BadCode:
            continue
        assert code.n_coded == m


# Trees for the walk properties: the reference geometry (depth 3, q = 8)
# and a deeper, narrower one (rate 1/2, q = 4, depth 4).
DEEP = dict(SMALL, rate=Fraction(1, 2), batch=4, root_size=2, symbol_size=16)
TREES = (
    cit.build_tree(bytes((i * 37 + 11) % 256 for i in range(512)), cit.TreeParams(**SMALL)),
    cit.build_tree(bytes((i * 101 + 7) % 256 for i in range(16 * 16 - 5)), cit.TreeParams(**DEEP)),
)


def _flip(value: bytes, at: int) -> bytes:
    out = bytearray(value)
    out[at % len(out)] ^= 0x01
    return bytes(out)


def _replace_at(seq: tuple, j: int, item) -> tuple:
    return seq[:j] + (item,) + seq[j + 1 :]


@st.composite
def mutated_proofs(draw, trees=TREES):
    """(tree, honest proof, proof differing from it in one field)."""
    tree = draw(st.sampled_from(trees))
    m = tree.sizes[-1]
    pom = cit.sample_pom(tree, draw(st.integers(0, m - 1)))
    kind = draw(
        st.sampled_from(
            ("base_index", "ancestor", "ancestor_count", "parity", "parity_count",
             "base_symbol", "block_len")
        )
    )
    if kind == "base_index":
        # the first tree's block repeats every 256 bytes, so base symbols 13
        # and 25 (and 14 and 26) are equal and so are their proofs; moving a
        # proof to an index whose honest proof it then is forges nothing
        def forges(v: int) -> bool:
            moved = pom._replace(base_index=v)
            return v != pom.base_index and not (0 <= v < m and cit.sample_pom(tree, v) == moved)

        i = draw(st.integers(-2, m + 2).filter(forges))
        return tree, pom, pom._replace(base_index=i)
    fields = {"ancestor": "ancestors", "parity": "parities"}
    if kind in fields:
        field = fields[kind]
        symbols = getattr(pom, field)
        j = draw(st.integers(0, len(symbols) - 1))
        how = draw(st.sampled_from(("flip", "shorter", "longer")))
        if how == "flip":
            new = _flip(symbols[j], draw(st.integers(0, len(symbols[j]) - 1)))
        else:
            new = symbols[j][:-1] if how == "shorter" else symbols[j] + b"\0"
        return tree, pom, pom._replace(**{field: _replace_at(symbols, j, new)})
    if kind in ("ancestor_count", "parity_count"):
        field = fields[kind[: -len("_count")]]
        symbols = getattr(pom, field)
        symbols = symbols[:-1] if draw(st.booleans()) else symbols + (symbols[-1],)
        return tree, pom, pom._replace(**{field: symbols})
    if kind == "base_symbol":
        at = draw(st.integers(0, len(pom.base_symbol) - 1))
        return tree, pom, pom._replace(base_symbol=_flip(pom.base_symbol, at))
    delta = draw(st.sampled_from((-1, 1, tree.commitment.params.symbol_size)))
    return tree, pom, pom._replace(block_len=pom.block_len + delta)


@settings(max_examples=300, deadline=None)
@given(mutated_proofs())
def test_walk_accepts_honest_and_rejects_single_field_mutations(case):
    tree, pom, bad = case
    assert not cit.Frontier(tree.commitment).walk(bad)
    frontier = cit.Frontier(tree.commitment)
    assert frontier.walk(pom) and not frontier.walk(bad)


FRACTION_OPS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
    "__abs__", "__int__", "__float__", "__lt__", "__le__", "__gt__", "__ge__",
    "limit_denominator",
)


def test_no_fraction_work_on_proof_paths_once_the_geometry_is_cached(monkeypatch):
    params = cit.TreeParams(**SMALL)
    block = bytes((i * 37 + 11) % 256 for i in range(512))
    honest = cit.build_tree(block, params)
    corrupted = build_tree_with_base_corruption(block, params, xor_mask=0x5A)
    # warm-up: geometry and every layer code are cached from here on
    fraud = rt.reconstruct(corrupted.commitment, params, chunkset_for(corrupted, range(32)))
    assert isinstance(fraud, rt.Fraud)
    honest_units = chunkset_for(honest, range(32))
    corrupted_units = chunkset_for(corrupted, range(32))

    used = []
    for name in FRACTION_OPS:
        original = getattr(Fraction, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            used.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, staticmethod(spy) if name == "__new__" else spy)
    assert Fraction(1, 2) and used == ["__new__"]  # the spies are live
    used.clear()

    frontier = cit.Frontier(honest.commitment)
    for i in range(32):
        pom = cit.sample_pom(honest, i)
        assert cit.Frontier(honest.commitment).walk(pom) and frontier.walk(pom)
    out = rt.reconstruct(honest.commitment, params, honest_units)
    assert isinstance(out, rt.Block) and out.data == block
    out = rt.reconstruct(corrupted.commitment, params, corrupted_units)
    assert isinstance(out, rt.Fraud)
    assert rt.verify_fraud_proof(corrupted.commitment, params, out.proof)
    frontier = cit.Frontier(corrupted.commitment)
    u = out.proof.layer
    for member in out.proof.members:
        assert frontier.claim(u, member.index, cit.sha256(member.value), member.ancestors)
    monkeypatch.undo()
    assert used == []
