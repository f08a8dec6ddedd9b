"""Independent GF(2) elimination oracle for erasure decoding.

Deliberately separate from the package's peeling path: solves the parity
system by full Gaussian elimination over bit-packed rows, so it can settle
unique decodability and consistency for any erasure pattern. Used as the
reference the peeling decoder is checked against.
"""

from __future__ import annotations


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def solve_erasure(code, known: dict):
    """Solve for the erased symbols of a codeword given the known ones.

    Returns ("decoded", {index: symbol}) with the full codeword when the
    system has a unique consistent solution, ("stuck", unknown_set) when the
    solution is underdetermined, and ("inconsistent", None) when the known
    symbols violate the span of the parity equations.
    """
    n = code.n_coded
    unknowns = sorted(set(range(n)) - set(known))
    col = {u: j for j, u in enumerate(unknowns)}
    width = len(next(iter(known.values()))) if known else 0
    zero = bytes(width)

    rows = []  # (bitmask over unknown columns, rhs symbol)
    for eq in code.parity_checks:
        mask = 0
        rhs = zero
        for i in eq:
            if i in col:
                mask |= 1 << col[i]
            else:
                rhs = xor_bytes(rhs, known[i])
        rows.append([mask, rhs])

    pivots = {}  # column -> row index
    for r in range(len(rows)):
        mask, rhs = rows[r]
        for c in sorted(pivots):
            if mask >> c & 1:
                mask ^= rows[pivots[c]][0]
                rhs = xor_bytes(rhs, rows[pivots[c]][1])
        rows[r] = [mask, rhs]
        if mask == 0:
            if rhs != zero:
                return "inconsistent", None
            continue
        c = (mask & -mask).bit_length() - 1
        pivots[c] = r

    if len(pivots) < len(unknowns):
        return "stuck", set(unknowns)

    # back-substitute to reduced row echelon
    solution = dict(known)
    for c in sorted(pivots, reverse=True):
        mask, rhs = rows[pivots[c]]
        val = rhs
        for c2 in range(c + 1, len(unknowns)):
            if mask >> c2 & 1:
                val = xor_bytes(val, solution[unknowns[c2]])
        solution[unknowns[c]] = val
    return "decoded", solution
