"""Small shared helpers: hashing, seed derivation, exact rate arithmetic."""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .errors import ParameterError

HASH_BYTES = 32


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a list of labels/values.

    Labels keep independent random streams independent: adding a new
    consumer never perturbs an existing one.
    """
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "little")


def as_rate(value) -> Fraction:
    """Coerce a coding ratio to an exact Fraction in (0, 1].

    Accepts Fraction, int, "1/4"-style strings, and floats that are exact
    binary fractions (0.25, 0.5). Anything else raises ParameterError.
    """
    exact = True
    try:
        if isinstance(value, Fraction):
            frac = value
        elif isinstance(value, (str, int)):
            frac = Fraction(value)
        else:
            frac = Fraction(value).limit_denominator(1 << 20)
            exact = float(frac) == float(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(f"rate {value!r} is not an exact fraction") from exc
    if not exact:
        raise ParameterError(f"rate {value!r} is not an exact fraction")
    if not 0 < frac <= 1:
        raise ParameterError(f"rate must lie in (0, 1], got {frac}")
    return frac


def exact_int(value) -> int:
    """Convert a Fraction/float product to int, requiring exactness."""
    frac = Fraction(value)
    if frac.denominator != 1:
        raise ParameterError(f"{value} is not integral")
    return int(frac)
