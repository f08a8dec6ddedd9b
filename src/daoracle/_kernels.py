"""Hot inner loops: XOR encoding, the peeling engine, distinct counts.

Equations. A code is its parity equations, ``CodeSpec.parity_checks``:
equation ``e`` is the tuple of its coded-symbol indices, ascending (the
last is its parity symbol), which ``xor_encode`` and the callers' value
XORs walk. The peel also walks ``CodeSpec.touching``, the equations that
hold each symbol, ascending: an index derived from the equations once per
code, not a second copy of them.

Peeling. A ``Peel`` keeps, per equation, the number of members still
unknown and the XOR of their indices, so an equation with one unknown
names it directly. It starts from the unknown symbols by the same
incidence walk a solve makes, mirrored: each unknown x adds one to the
count of every equation in ``touching[x]`` and XORs x into its index XOR;
``Peel.solve(x)`` takes both back. The engine never touches symbol
values. ``Peel.steps()`` visits equations in the order of an ascending
scan over all equations, repeated while a scan solves something, that
solves each equation in turn (a fraud proof names the first failing
equation under that rule). A pass walks its ready list, sorted, in
order; only the equations a solve readies ahead in the same pass wait in
a heap, merged in where they fall, and those it readies behind form the
next pass's list. The caller XORs values, or for the alpha gate only
follows the closure, and calls ``Peel.solve(x)`` for each solve it
accepts. ``codec.is_bad_code`` and retrieval both peel this way.

Values. ``cit.build_tree``'s encode picks the value form by layer: the
base layer XORs uint8 rows in ``xor_encode``, and a digest layer's
symbols, q digests each, XOR as Python ints (``int_from_digest``). Ints
are read and written little-endian, which ``int.from_bytes`` converts
2-12% faster than big-endian at 256 bytes and 1 KiB (timeit, 2 vCPUs);
XOR acts bytewise, so the byte order changes no byte written. The
encode's crossover lies below the peel's: encoding a 1024-symbol layer
of the benchmark's code family (rate 1/4, d = 8; min of 300 runs, 2
vCPUs) took 0.7 ms as ints against 1.2 ms as uint8 rows at 256 bytes,
1.2-1.3 ms against 1.3-1.4 ms at 768, but 1.6-1.7 ms against 1.4 ms
at 1 KiB and 2.6 ms against 1.5 ms at 2 KiB, so ``value_form``'s rule
would slow a round's 1 KiB base encode. The peel and
``retrieval.verify_fraud_proof`` pick it by symbol width
(``value_form``): symbols up to ``INT_VALUE_MAX_BYTES`` XOR as Python
ints, so a round's 1 KiB base rows take the digest layers' path, and
wider ones as uint8 rows. ``xor_members`` XORs either form for the
digest encode, the fraud-proof check and the peel of uint8 rows; the
peel of ints XORs each equation inline (``retrieval``). ``xor_members``
and ``xor_encode`` start from the first pair of inputs, so no row pass XORs
into zeros: ``xor_encode`` writes each parity row with one
``np.bitwise_xor(a, b, out=row)`` and XORs any further input into it in
place, which writes every byte of the row once (``codec.encode_array``
can leave it unset), and ``xor_members`` starts from ``first ^ second``.

Rows on two threads. ``map_rows(fn, rows)`` is ``[fn(r) for r in rows]``;
when there are at least two rows of at least ``PARALLEL_MIN_BYTES``, one
helper ``threading.Thread``, started for the call and joined before it
returns or raises, shares them with the caller, each thread taking the
next unclaimed index. hashlib releases the GIL while it hashes 2 KiB or
more, so two threads hash wide rows on two cores. Hashing up to 2048
rows (at most 16 MiB) with sha256, two threads took this share of the
time of one (min of 15 calls, four runs; Python 3.11, 2 vCPUs, the
second core free):

    row width   2 KiB      4 KiB      8 KiB      16 KiB     32 KiB     64 KiB
    two / one   1.12-2.04  0.97-1.45  0.79-1.19  0.59-0.66  0.56-0.61  0.52-0.63

The crossover lies between 4 and 8 KiB and moves from run to run, so
``PARALLEL_MIN_BYTES`` is 16 KiB, the narrowest width that gained in
every run; a busy second core moves the crossover up (ROADMAP, "Parallel
row hashing"). So only ``bulk_block``'s 64 KiB base rows go to
two threads, in ``cit.build_tree`` and in a reconstruction's ingest; a
round's 1 KiB base rows and every digest layer's 256-byte rows are hashed
on the caller's thread alone.
"""

from __future__ import annotations

import itertools
import threading
from heapq import heappop, heappush
from typing import Callable, Sequence

import numpy as np


def xor_encode(equations, sym):
    """Write each equation's parity row, its last member, as the XOR of the
    rows of its other members, systematic inputs already present in sym:
    one pass over each row, the first pair XORed straight into the parity
    row and the rest XORed in place (a one-input equation copies it)."""
    rows = list(sym)
    for eq in equations:
        parity = rows[eq[-1]]
        if len(eq) == 2:
            parity[:] = rows[eq[0]]
            continue
        np.bitwise_xor(rows[eq[0]], rows[eq[1]], out=parity)
        for i in eq[2:-1]:
            parity ^= rows[i]
    return sym


def xor_members(values, members, skip: int = -1):
    """XOR of ``values[i]`` over the members other than ``skip``, at least
    one. Values are Python ints or uint8 rows; the XOR of rows starts from
    the first pair, so it is a fresh array that the rest are XORed into in
    place, and a lone member is returned as it is (no input is ever
    modified). One loop without a list of the picked values: at digest
    width, building that list costs more than the int XORs."""
    acc, fresh = None, False
    for i in members:
        if i != skip:
            if fresh:
                acc ^= values[i]
            elif acc is None:
                acc = values[i]
            else:
                acc, fresh = acc ^ values[i], True
    return acc


# The widest symbol, in bytes, whose values XOR as Python ints; a wider
# one XORs as a uint8 row. Peeling a 1024-symbol base layer of the
# benchmark's code family (rate 1/4, q=8, d=8) from 800 delivered symbols,
# ints took 0.53x the time of uint8 rows at 512 bytes, 0.75x at 1 KiB,
# 0.85x at 1.5 KiB, 0.98-1.02x at 2 KiB, 1.08-1.10x at 2.5 KiB, 1.33x at
# 4 KiB and 1.9x at 8 KiB (Python 3.11, numpy 2.4, 2 vCPUs).
INT_VALUE_MAX_BYTES = 2048


def int_from_digest(value: bytes) -> int:
    return int.from_bytes(value, "little")


def digest_from_int(value: int, width: int) -> bytes:
    return value.to_bytes(width, "little")


def value_form(width: int):
    """How the values of ``width``-byte symbols are XORed, as the triple
    (load: a symbol's bytes to its value, dump: a value to its bytes,
    nonzero: whether a value is). Up to ``INT_VALUE_MAX_BYTES`` a value is
    a Python int; wider, a uint8 row over the symbol's buffer, dumped as a
    read-only view of itself, so a solved row is not copied."""
    if width <= INT_VALUE_MAX_BYTES:

        def dump(value: int) -> bytes:
            return value.to_bytes(width, "little")

        return int_from_digest, dump, bool
    return _row_from_bytes, _view_of_row, np.ndarray.any


def _row_from_bytes(value) -> np.ndarray:
    return np.frombuffer(value, dtype=np.uint8)


def _view_of_row(row: np.ndarray) -> memoryview:
    row.setflags(write=False)
    return row.data


class Peel:
    """Peeling state of one code from its unknown symbols. ``code`` is a
    ``codec.CodeSpec``, read only for ``touching`` and the number of
    ``parity_checks`` (``codec`` imports this module, so it is not named
    here); ``unknown`` the distinct indices of the symbols not known, in
    any order (a repeated index would count twice). ``known`` is a
    bytearray, 1 per known symbol, that ``solve`` updates."""

    def __init__(self, code, unknown: Sequence[int]):
        touching = self._touching = code.touching
        known = self.known = bytearray(b"\x01") * len(touching)
        count = self.count = [0] * len(code.parity_checks)
        index_xor = self.xor = [0] * len(code.parity_checks)
        for x in unknown:
            known[x] = 0
            for e in touching[x]:
                count[e] += 1
                index_xor[e] ^= x

    def steps(self):
        """Yield ``(e, x)`` for each equation an ascending, solve-in-turn
        scan reaches with at most one unknown member: x is that member, or
        -1 when every member is known. Each equation is yielded once.

        Equations ready at the start form pass 0. When a solve at e readies
        f, the scan reaches f later in the same pass if f > e, else in the
        next pass; entries run in (pass, equation) order. A pass walks its
        sorted ready list in order, and a heap holds only the equations a
        solve readies ahead in the same pass, merged in before each entry
        of the list that comes after them."""
        count, index_xor = self.count, self.xor
        ready = [e for e, c in enumerate(count) if c <= 1]
        while ready:
            ahead = self._ahead = []
            self._later = []
            for e in ready:
                while ahead and ahead[0] < e:
                    f = self._at = heappop(ahead)
                    yield f, (index_xor[f] if count[f] else -1)
                self._at = e
                yield e, (index_xor[e] if count[e] else -1)
            while ahead:
                f = self._at = heappop(ahead)
                yield f, (index_xor[f] if count[f] else -1)
            ready = sorted(self._later)

    def solve(self, x: int) -> None:
        """Accept the solve of symbol x at the equation ``steps`` last
        yielded: x becomes known, and each equation it leaves with exactly
        one unknown joins this pass if it lies after that equation, else
        the next (an equation reaches zero unknowns only through one)."""
        self.known[x] = 1
        e, count, index_xor = self._at, self.count, self.xor
        for f in self._touching[x]:
            c = count[f] - 1
            count[f] = c
            index_xor[f] ^= x
            if c == 1:
                if f > e:
                    heappush(self._ahead, f)
                else:
                    self._later.append(f)


# The narrowest row, in bytes, that ``map_rows`` shares with a helper
# thread (the module's "Rows on two threads").
PARALLEL_MIN_BYTES = 16 * 1024


def map_rows(fn: Callable, rows: Sequence) -> list:
    """``[fn(r) for r in rows]`` for rows of one width. With at least two
    rows of at least ``PARALLEL_MIN_BYTES``, one helper thread shares them,
    each thread taking the next unclaimed index, and the helper is joined
    before this returns or raises. An exception from fn on the caller's
    thread stops the helper and propagates; a row fn raised on in the
    helper is mapped again on the caller's thread once the rest are done,
    so its exception reaches the caller with its own type and traceback."""
    n = len(rows)
    if n < 2 or len(rows[0]) < PARALLEL_MIN_BYTES:
        return [*map(fn, rows)]
    # the caller maps row 0 before the helper starts, so fn's first call,
    # which may set state up (a call counter's first key), runs alone
    out = [fn(rows[0])] + [None] * (n - 1)
    claim, stop, failed = itertools.count(1), [], []

    def helper_rows():
        for i in claim:
            if i >= n or stop:
                return
            try:
                out[i] = fn(rows[i])
            except BaseException:
                failed.append(i)
                return

    helper = threading.Thread(target=helper_rows, name="map_rows")
    helper.start()
    try:
        for i in claim:
            if i >= n:
                break
            out[i] = fn(rows[i])
    finally:
        stop.append(True)
        helper.join()
    for i in failed:
        out[i] = fn(rows[i])
    return out


def count_distinct(rows):
    """Distinct values in each row of a 2-D integer array."""
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    srt = np.sort(rows, axis=1)
    return 1 + np.count_nonzero(np.diff(srt, axis=1), axis=1).astype(np.int64)

