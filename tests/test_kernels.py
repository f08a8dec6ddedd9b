"""The kernels against independent references: GF(2) elimination
(``tests/gf2.py``), a plain set-based peeling closure, Python's own
distinct count, and hand-built equation systems; the XOR encoder and
the member XOR against numpy's and Python's own XOR; ``map_rows`` against
the plain map, with its helper thread started or not. The peeling engine is
driven here the way its callers drive it: ``closes`` follows the closure of
a known set, as the alpha gate does, and ``conftest.peel_rows`` decodes
uint8 rows, as retrieval does. ``tests/test_peel.py`` checks it against
the peelers it replaced."""

import hashlib
import operator
import sys
import threading
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daoracle import _kernels as kn
from daoracle.codec import encode_array, generate_code
from daoracle.errors import ParameterError

from conftest import code_of, peel_rows
from gf2 import solve_erasure


def random_instance(seed, k=8, rate="1/4", width=16):
    code = generate_code(k, rate, 8, seed=seed)
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, 256, size=(k, width), dtype=np.uint8)
    sym = encode_array(code, inputs)
    return code, sym


def peel_closure(equations, n, known) -> bool:
    """Reference peeling: solve any equation with one unknown member until
    none is left; True when every symbol ends up known."""
    known = set(known)
    progress = True
    while progress:
        progress = False
        for members in equations:
            left = [i for i in members if i not in known]
            if len(left) == 1:
                known.add(left[0])
                progress = True
    return len(known) == n


def visits(code, unknown):
    """The ``(e, x)`` steps of the engine's peel from the unknown symbol
    indices ``unknown``, every solve accepted, and whether it reaches every
    symbol."""
    peel = kn.Peel(code, unknown)
    visited = []
    for e, x in peel.steps():
        visited.append((e, x))
        if x >= 0:
            peel.solve(x)
    return visited, all(peel.known)


def closes(code, known) -> bool:
    """True when the engine's peel from the bool array ``known`` reaches
    every symbol."""
    return visits(code, np.flatnonzero(~known).tolist())[1]


@pytest.mark.parametrize("seed", range(6))
def test_peel_symbols_paths_agree(seed):
    """Peeling agrees with GF(2) elimination: whatever it solves is the
    codeword, a full decode is the unique solution, and a violation is an
    inconsistent system."""
    code, sym = random_instance(seed)
    rng = np.random.default_rng(seed + 100)
    # erase about 30%, 45% and 75% of the symbols
    known = rng.random(code.n_coded) > (0.3, 0.45, 0.75)[seed // 2]
    given = sym.copy()
    if seed % 2:
        # corrupt one known symbol: the system may become inconsistent
        given[int(np.flatnonzero(known)[0]), 0] ^= 0x5A

    peeled, mask = given.copy(), known.copy()
    status, viol = peel_rows(code, peeled, mask)
    verdict, solution = solve_erasure(
        code, {int(i): given[i].tobytes() for i in np.flatnonzero(known)}
    )

    if status == "violation":
        assert verdict == "inconsistent"
        eq = code.parity_checks[viol]
        assert np.bitwise_xor.reduce(peeled[list(eq)], axis=0).any()
        return
    if seed % 2 == 0:
        # an honest codeword: every solved symbol is the encoded one
        assert np.array_equal(peeled[mask], sym[mask])
    if status == "decoded":
        assert mask.all() and verdict == "decoded"
        assert all(solution[i] == peeled[i].tobytes() for i in range(code.n_coded))
    else:
        assert status == "stuck" and not mask.all() and viol == -1
        # a stall leaves a stopping set: no equation has exactly one unknown
        for eq in code.parity_checks:
            assert sum(not mask[i] for i in eq) != 1


@pytest.mark.parametrize("seed", range(6))
def test_peel_pattern_paths_agree(seed):
    """The engine's closure agrees with the set-based closure, and a
    pattern it decodes has a unique GF(2) solution."""
    code, sym = random_instance(seed, k=16, rate="1/2")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        known = rng.random(code.n_coded) > rng.uniform(0.1, 0.6)
        got = closes(code, known)
        assert got == peel_closure(
            code.parity_checks, code.n_coded, np.flatnonzero(known).tolist()
        )
        if got:
            verdict, _ = solve_erasure(
                code, {int(i): sym[i].tobytes() for i in np.flatnonzero(known)}
            )
            assert verdict == "decoded"


def test_peel_pattern_hand_built_cases():
    # a chain: knowing 0 and 1 solves 2, which solves 3, which solves 4
    chain = code_of([(0, 1, 2), (2, 3), (3, 4)], 5)
    assert closes(chain, np.array([1, 1, 0, 0, 0], dtype=bool))
    assert not closes(chain, np.array([1, 0, 0, 0, 0], dtype=bool))
    # {1, 2} is a stopping set of (0, 1, 2), (1, 2, 3): each equation that
    # touches it touches it twice
    stop = code_of([(0, 1, 2), (1, 2, 3)], 4)
    assert not closes(stop, np.array([1, 0, 0, 1], dtype=bool))
    assert closes(stop, np.array([1, 1, 0, 1], dtype=bool))


def test_peel_symbols_hand_built_cases():
    code = code_of([(0, 1, 2), (2, 3)], 4)
    sym = np.array([[5], [3], [6], [6]], dtype=np.uint8)  # 5^3 = 6
    peeled, known = sym.copy(), np.array([1, 1, 0, 0], dtype=bool)
    peeled[~known] = 0
    assert peel_rows(code, peeled, known) == ("decoded", -1)
    assert np.array_equal(peeled, sym) and known.all()
    # equation 1 is fully known and fails; equation 0 holds
    bad = np.array([[5], [3], [6], [7]], dtype=np.uint8)
    assert peel_rows(code, bad.copy(), np.ones(4, dtype=bool)) == ("violation", 1)
    known = np.array([1, 0, 0, 0], dtype=bool)
    assert peel_rows(code, sym.copy(), known) == ("stuck", -1)


def test_steps_follow_the_ascending_scan():
    # knowing 3 readies equation 1, whose solve of 0 readies equation 2
    # (later in this pass) and equation 0 (in the next pass), whatever the
    # order the unknown symbols are given in
    code = code_of([(0, 1), (0, 3), (0, 2)], 4)
    for unknown in ([0, 1, 2], [2, 1, 0]):
        visited, complete = visits(code, unknown)
        assert visited == [(1, 0), (2, 2), (0, 1)]
        assert complete


def scan_steps(members, unknown):
    """The plain scan ``Peel.steps`` follows: every equation in ascending
    order, once per pass, passes repeated while a pass solves something;
    an equation with at most one unknown member is yielded, once, and its
    unknown member, if any, solved."""
    unknown, done, steps = set(unknown), set(), []
    solved = True
    while solved:
        solved = False
        for e, eq in enumerate(members):
            if e in done:
                continue
            left = [i for i in eq if i in unknown]
            if len(left) > 1:
                continue
            done.add(e)
            x = left[0] if left else -1
            steps.append((e, x))
            if x >= 0:
                unknown.discard(x)
                solved = True
    return steps


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_steps_are_the_plain_scan(data):
    """``Peel.steps`` yields the plain scan's full ``(e, x)`` sequence,
    every solve accepted, on random codes from random unknown sets."""
    code = generate_code(
        data.draw(st.integers(1, 40)), data.draw(st.sampled_from(("1/2", "1/3", "1/4"))),
        data.draw(st.integers(2, 8)), seed=data.draw(st.integers(0, 2**32)),
    )
    unknown = data.draw(st.lists(st.integers(0, code.n_coded - 1), unique=True))
    visited, _ = visits(code, unknown)
    assert visited == scan_steps(code.parity_checks, unknown)


def test_count_distinct_paths_agree():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 37, size=(40, 25), dtype=np.int64)
    expect = [len(set(row.tolist())) for row in rows]
    assert kn.count_distinct(rows).tolist() == expect


def test_count_distinct_empty_rows():
    rows = np.zeros((3, 0), dtype=np.int64)
    assert kn.count_distinct(rows).tolist() == [0, 0, 0]


def test_first_fail_monotone_and_in_range():
    """Erasing a longer prefix of an erasure order never helps: the engine
    stalls, as the set-based closure does, from the first failing prefix
    length on, and that length lies in [1, n]."""
    code, _ = random_instance(3)
    n = code.n_coded
    rng = np.random.default_rng(3)
    for _ in range(10):
        perm = rng.permutation(n)
        stalls = []
        for e in range(n + 1):
            known = np.ones(n, dtype=np.bool_)
            known[perm[:e]] = False
            stalls.append(not closes(code, known))
            assert stalls[-1] == (
                not peel_closure(code.parity_checks, n, np.nonzero(known)[0].tolist())
            )
        assert stalls == sorted(stalls)
        assert 1 <= stalls.index(True) <= n


# the encoder and the member XOR against numpy's and Python's own XOR


@pytest.mark.parametrize("width", (1, 7, 1024, 65536))
@pytest.mark.parametrize("k", (1, 2, 3, 16))
def test_encode_is_the_xor_of_each_equations_inputs(k, width):
    """Every parity row of ``encode_array``'s codeword, and of
    ``xor_encode`` over a codeword whose parity rows start as 0xFF, is the
    XOR of its equation's other members, for repetition codes (k <= 2) and
    sparse ones; no unset row survives either."""
    code = generate_code(k, "1/4", 8, seed=k * 31 + width)
    rng = np.random.default_rng(width + k)
    inputs = rng.integers(0, 256, size=(k, width), dtype=np.uint8)
    filled = np.full((code.n_coded, width), 0xFF, dtype=np.uint8)
    filled[:k] = inputs
    for cw in (encode_array(code, inputs), kn.xor_encode(code.parity_checks, filled)):
        assert np.array_equal(cw[:k], inputs)
        for eq in code.parity_checks:
            want = np.bitwise_xor.reduce(cw[list(eq[:-1])], axis=0)
            assert np.array_equal(cw[eq[-1]], want)
    assert np.array_equal(filled, encode_array(code, inputs))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_xor_members_is_the_reduce_over_the_members_left(data):
    """``xor_members`` is ``functools.reduce(operator.xor, ...)`` over the
    members other than ``skip``, on ints and on uint8 rows, and modifies
    none of its inputs."""
    n = data.draw(st.integers(2, 12))
    members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n)))
    skip = data.draw(st.sampled_from([-1, *members]))
    left = [i for i in members if i != skip]
    ints = data.draw(st.lists(st.integers(0, (1 << 256) - 1), min_size=n, max_size=n))
    assert kn.xor_members(ints, members, skip) == reduce(operator.xor, (ints[i] for i in left))
    width = data.draw(st.sampled_from((1, 7, 64)))
    rows = [np.frombuffer(data.draw(st.binary(min_size=width, max_size=width)), dtype=np.uint8)
            .copy() for _ in range(n)]
    before = [row.copy() for row in rows]
    got = kn.xor_members(rows, members, skip)
    assert np.array_equal(got, reduce(operator.xor, (rows[i] for i in left)))
    assert all(np.array_equal(a, b) for a, b in zip(rows, before))
    if len(left) == 1:
        assert got is rows[left[0]]
    else:
        assert not any(np.shares_memory(got, row) for row in rows)


def digest(row) -> bytes:
    return hashlib.sha256(row).digest()


def random_rows(n: int, width: int) -> list[bytes]:
    rng = np.random.default_rng([n, width])
    return [rng.bytes(width) for _ in range(n)]


WIDTHS = (1, kn.PARALLEL_MIN_BYTES - 1, kn.PARALLEL_MIN_BYTES, 2 * kn.PARALLEL_MIN_BYTES + 3)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("n", (0, 1, 2, 37))
def test_map_rows_is_the_plain_map(n, width):
    rows = random_rows(n, width)
    expected = [*map(digest, rows)]
    assert kn.map_rows(digest, rows) == expected
    # the rows of a base layer, as build_tree passes them
    array = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(n, width)
    assert kn.map_rows(digest, array) == expected


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("n", (1, 2, 37))
def test_map_rows_starts_a_helper_only_for_two_wide_rows(monkeypatch, n, width):
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    before = threading.active_count()
    kn.map_rows(digest, random_rows(n, width))
    assert len(started) == (n >= 2 and width >= kn.PARALLEL_MIN_BYTES)
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


class Boom(Exception):
    pass


@pytest.mark.parametrize("width", (kn.PARALLEL_MIN_BYTES - 1, kn.PARALLEL_MIN_BYTES))
@pytest.mark.parametrize("bad", ("row 0", "row 1", "row 20", "row 36", "every row"))
def test_map_rows_raises_what_fn_raises_and_leaves_no_thread(bad, width):
    rows = random_rows(37, width)
    failing = rows if bad == "every row" else [rows[int(bad.split()[1])]]

    def fn(row):
        if any(row is r for r in failing):
            raise Boom(bad)
        return digest(row)

    before = threading.active_count()
    with pytest.raises(Boom):
        kn.map_rows(fn, rows)
    assert threading.active_count() == before


def encode_prefix(k: int, n: int, width: int):
    """The first n rows of a codeword with k systematic rows, as a codeword
    whose parity rows are unset, its first min(k, n) rows, and the
    equations that write the rest (k <= 2 gives two-member ones)."""
    code = generate_code(k, Fraction(1, max(2, -(-n // k))), 8, seed=31 * k + n + width)
    sym = np.full((n, width), 0xFF, dtype=np.uint8)
    first = min(k, n)
    sym[:first] = np.random.default_rng([k, n, width]).integers(0, 256, (first, width))
    return sym, sym[:first], [eq for eq in code.parity_checks if eq[-1] < n]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("n", (0, 1, 2, 37))
@pytest.mark.parametrize("k", (1, 2, 10))
def test_pipelined_map_is_the_encode_then_the_plain_map(k, n, width):
    sym, first, equations = encode_prefix(k, n, width)
    expected = kn.map_rows(digest, kn.xor_encode(equations, sym.copy()))
    before = threading.active_count()
    with kn.pipelined_map(digest, first, n) as (put, out):
        kn.xor_encode(equations, sym, put)
    assert out == expected == [*map(digest, sym)]
    assert threading.active_count() == before


def test_pipelined_map_refuses_a_row_count_it_was_not_promised():
    for width in WIDTHS:
        sym, first, equations = encode_prefix(10, 37, width)
        before = threading.active_count()
        for extra in (-1, 1):
            with pytest.raises(ParameterError):
                with kn.pipelined_map(digest, first, 37 + extra) as (put, _):
                    kn.xor_encode(equations, sym, put)
            assert threading.active_count() == before


@pytest.mark.parametrize("first", (1, 6))
def test_pipelined_map_maps_no_row_past_the_count(first):
    """Rows past n, given on entry or put, are counted and refused on exit,
    but fn never sees them."""
    rows = random_rows(6, kn.PARALLEL_MIN_BYTES)
    mapped = []

    def fn(row):
        mapped.append(next(k for k, r in enumerate(rows) if r is row))
        return digest(row)

    with pytest.raises(ParameterError):
        with kn.pipelined_map(fn, rows[:first], 4) as (put, _):
            for row in rows[first:]:
                put(row)
            time.sleep(0.1)  # the helper takes every index it was given
    assert sorted(mapped) == [0, 1, 2, 3]


@pytest.mark.parametrize("width", (kn.PARALLEL_MIN_BYTES - 1, kn.PARALLEL_MIN_BYTES))
@pytest.mark.parametrize(
    "bad", ("systematic row 0", "systematic row 3", "parity row 30", "every row", "the block")
)
def test_pipelined_map_raises_what_fn_or_the_block_raises_and_leaves_no_thread(bad, width):
    sym, first, equations = encode_prefix(10, 37, width)
    address = sym.ctypes.data

    mapped = []

    def fn(row):
        i = (row.ctypes.data - address) // width
        if bad == "every row" or bad.endswith(f" row {i}"):
            raise Boom(bad)
        mapped.append(i)
        return digest(row)

    def put_then_fail(put):
        def written(row):
            put(row)
            if (row.ctypes.data - address) // width == 20:
                # with a helper, let it map rows 0-20 and wait for row 21,
                # so it is waiting when the block raises
                deadline = time.monotonic() + 10
                while width >= kn.PARALLEL_MIN_BYTES and len(mapped) < 21:
                    assert time.monotonic() < deadline
                    time.sleep(1e-3)
                time.sleep(0.01)
                raise Boom(bad)
        return written

    raised = []

    def call():
        try:
            with kn.pipelined_map(fn, first, 37) as (put, _):
                kn.xor_encode(equations, sym, put_then_fail(put) if bad == "the block" else put)
        except Boom as exc:
            raised.append(exc)

    before = threading.active_count()
    # on a thread joined with a timeout, so a helper left waiting for a
    # row fails the test instead of hanging it
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(raised) == 1
    assert threading.active_count() == before


def test_pipelined_map_stops_the_helper_after_its_row_when_the_block_raises():
    """The block puts every row, then raises while the helper is held
    inside fn on row 1: the helper maps no later row."""
    rows = random_rows(8, kn.PARALLEL_MIN_BYTES)
    held, release, mapped = threading.Event(), threading.Event(), []

    def fn(row):
        i = next(k for k, r in enumerate(rows) if r is row)
        if i == 1:
            held.set()
            release.wait(10)
        mapped.append(i)
        return digest(row)

    timer = threading.Timer(0.2, release.set)
    before = threading.active_count()
    with pytest.raises(Boom):
        with kn.pipelined_map(fn, rows[:2], len(rows)) as (put, _):
            assert held.wait(10)
            for row in rows[2:]:
                put(row)
            timer.start()
            raise Boom("the block")
    timer.join()
    assert mapped == [0, 1]
    assert threading.active_count() == before


def test_pipelined_map_waits_for_a_row_without_spinning():
    """A helper ahead of the caller waits without using the CPU."""
    rows = random_rows(4, kn.PARALLEL_MIN_BYTES)
    start = time.process_time()
    with kn.pipelined_map(digest, rows[:2], len(rows)) as (put, out):
        put(rows[2])
        time.sleep(0.3)
        put(rows[3])
    assert time.process_time() - start < 0.1
    assert out == [*map(digest, rows)]


def test_map_rows_maps_each_row_once_under_stress():
    """Six callers share no state but the interpreter: each map_rows call,
    or pipelined map behind an encode, and its helper map every row of
    their call exactly once, with threads switching every microsecond
    (twelve threads on two cores). Each caller is joined with a timeout, so
    a helper and a caller waiting on each other fail the test, not hang
    it."""
    rows = random_rows(64, kn.PARALLEL_MIN_BYTES)
    expected = [*map(digest, rows)]
    calls, results = [], {}

    def fn(row):
        calls.append(row)
        return digest(row)

    codewords = [encode_prefix(16, 64, kn.PARALLEL_MIN_BYTES) for _ in range(3)]
    encoded = [*map(digest, kn.xor_encode(codewords[0][2], codewords[0][0].copy()))]
    mapped = {}

    def encoding_fn(k):
        address = codewords[k][0].ctypes.data

        def fn(row):
            mapped[k].append((row.ctypes.data - address) // kn.PARALLEL_MIN_BYTES)
            return digest(row)
        return fn

    def caller(k):
        results[k] = kn.map_rows(fn, rows)

    def encoding_caller(k):
        sym, first, equations = codewords[k]
        mapped[k] = []
        with kn.pipelined_map(encoding_fn(k), first, len(sym)) as (put, out):
            kn.xor_encode(equations, sym, put)
        results[3 + k] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [
            threading.Thread(target=target, args=(k,), daemon=True)
            for k in range(3)
            for target in (caller, encoding_caller)
        ]
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in callers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results == {k: expected if k < 3 else encoded for k in range(6)}
    assert sorted(map(id, calls)) == sorted(map(id, rows * 3))
    assert all(sorted(mapped[k]) == list(range(64)) for k in range(3))
