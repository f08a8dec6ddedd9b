"""Reference tree geometry in exact Fraction arithmetic.

This is the plain-arithmetic definition the integer ``cit.geometry`` must
reproduce: layer sizes shrink by batch * rate from the base up, every size
and every systematic count must be integral, and the shrink must land
exactly on the root size. Errors carry the same messages.
"""

from fractions import Fraction

from daoracle.errors import ParameterError


def layer_sizes(params, block_len: int) -> tuple[int, ...]:
    """Coded layer sizes from root to base for a block of this length."""
    if block_len < 1:
        raise ParameterError("block must be non-empty")
    n_sys = -(-block_len // params.symbol_size)
    m = Fraction(n_sys) / params.rate
    if m.denominator != 1:
        raise ParameterError(
            f"{n_sys} base symbols at rate {params.rate} is not integral"
        )
    sizes = [int(m)]
    shrink = params.batch * params.rate
    if shrink.denominator != 1:
        raise ParameterError("batch * rate must be an integer")
    while sizes[-1] > params.root_size:
        nxt = Fraction(sizes[-1]) / shrink
        if nxt.denominator != 1:
            raise ParameterError("layer sizes must stay integral")
        sizes.append(int(nxt))
    if sizes[-1] != params.root_size or len(sizes) < 2:
        raise ParameterError(
            f"layer sizes {sizes[::-1]} never land on root_size {params.root_size}"
        )
    for m in sizes:
        if (params.rate * m).denominator != 1 or params.rate * m < 1:
            raise ParameterError(
                f"layer of {m} symbols has non-integral systematic count"
            )
    return tuple(reversed(sizes))


def sys_count(params, layer_size: int) -> int:
    value = params.rate * layer_size
    assert value.denominator == 1
    return int(value)


def pom_pairs(params, sizes, base_index: int) -> list[tuple[int, int]]:
    """(systematic, parity) indices for layers depth-1 down to 1: the pair
    is (i mod r*m, r*m + (i mod (1-r)*m)) for a layer of m symbols."""
    out = []
    for m in sizes[-2:0:-1]:
        s = params.rate * m
        out.append((int(base_index % s), int(s + base_index % ((1 - params.rate) * m))))
    return out
