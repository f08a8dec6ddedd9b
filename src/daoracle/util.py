"""Small shared helpers: hashing, seed derivation, exact rate coercion,
field checks for JSON configs."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Optional

from .errors import ParameterError

HASH_BYTES = 32
# seeds are taken mod 2**64, so that np.uint64 holds them
MASK64 = (1 << 64) - 1

# value types of JSON config fields; a bool never passes as a number
NUMBER = (int, float)
RATE = (str, int, float)  # "1/4"-style string or an exact number, see as_rate


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def as_written(value) -> Fraction:
    """The exact value of the decimal a number was written as: 0.1 is 1/10,
    not the binary float nearest it, so a threshold on a count that is
    stated as a fraction of N does not move with float rounding."""
    return Fraction(str(value))


def require_finite(values: dict) -> None:
    """Raise ParameterError naming the first entry of ``values`` (name to
    number) that no finite float holds: NaN, an infinity or an int past
    the float range, each of which json reads from a file, or a float that
    finite inputs overflowed, which json would write as a bare Infinity."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ParameterError(f"{name} must be finite")


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


def json_fields(raw, required: dict, optional: Optional[dict] = None) -> dict:
    """The entries of the JSON object ``raw`` that ``required`` and
    ``optional`` name (key -> type or tuple of types), each checked against
    its type. A missing required key, a value of another type, or a ``raw``
    that is not an object raises ParameterError."""
    if not isinstance(raw, dict):
        raise ParameterError(f"expected a JSON object, got {type(raw).__name__}")
    out = {}
    for key, kind in (*required.items(), *(optional or {}).items()):
        if key not in raw:
            if key in required:
                raise ParameterError(f"missing key {key!r}")
            continue
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ParameterError(f"key {key!r} has the wrong type {type(value).__name__}")
        out[key] = value
    return out
