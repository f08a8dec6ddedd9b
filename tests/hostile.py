"""Hostile variants of valid files for the decoder and CLI fuzz tests: a
file gets 1-8 bytes overwritten, is cut short, or is extended by 1-8
bytes, and each case runs under a wall-clock bound."""

import signal
from contextlib import contextmanager

from hypothesis import strategies as st


class Overrun(Exception):
    pass


@contextmanager
def time_bound(seconds: float):
    """Raise Overrun inside the block once ``seconds`` have passed."""

    def expire(_signum, _frame):
        raise Overrun(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def hostile_files(draw, kinds):
    """(format, how, edits) for a format drawn from ``kinds``; ``hostile``
    applies the edits to a valid file of that format."""
    kind = draw(st.sampled_from(sorted(kinds)))
    how = draw(st.sampled_from(("mutate", "truncate", "extend")))
    # offsets are taken modulo the file length; two in three fall in the
    # headers, where the counts and lengths are, and extreme byte values
    # are favoured, as they make those fields huge or zero
    offsets = st.one_of(st.integers(0, 31), st.integers(0, 255), st.integers(0, 1 << 20))
    values = st.one_of(st.sampled_from((0x00, 0x01, 0x7F, 0x80, 0xFF)), st.integers(0, 255))
    if how == "truncate":
        return kind, how, draw(offsets)
    return kind, how, draw(st.lists(st.tuples(offsets, values), min_size=1, max_size=8))


def hostile(valid: bytes, how: str, edits) -> bytes:
    """``valid`` with the edits of one ``hostile_files`` draw applied."""
    blob = bytearray(valid)
    if how == "truncate":
        del blob[edits % len(blob):]
    elif how == "extend":
        blob += bytes(value for _, value in edits)
    else:
        for at, value in edits:
            blob[at % len(blob)] = value
    return bytes(blob)
