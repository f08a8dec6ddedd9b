"""Hot inner loops: XOR encoding, peeling decode, distinct-count Monte Carlo.

Representation shared by all kernels:

- parity equations in CSR form: ``eq_ptr`` int32 of shape (n_eq + 1,) and
  ``eq_idx`` int32 of shape (nnz,); equation ``e`` touches the coded-symbol
  indices ``eq_idx[eq_ptr[e]:eq_ptr[e+1]]``, sorted ascending.
- symbols as a C-contiguous uint8 array of shape (n_coded, symbol_len).
- knownness as a bool array of shape (n_coded,).

``peel_symbols`` scans equations in ascending index order each pass and
applies solves immediately ("in turn"), so a Violation always names the
first failing equation under that discipline. ``peel_pattern`` batches a
pass: the peeling closure of a known-set is order independent.

Status codes returned by ``peel_symbols``: 0 decoded, 1 stuck, 2 violation.
"""

from __future__ import annotations

import numpy as np


def xor_encode(eq_ptr, eq_idx, parity_of, sym):
    # parity_of[e] is the one output index of equation e; remaining members
    # are systematic inputs already present in sym.
    n_eq = eq_ptr.shape[0] - 1
    for e in range(n_eq):
        target = parity_of[e]
        sym[target, :] = 0
        for j in range(eq_ptr[e], eq_ptr[e + 1]):
            m = eq_idx[j]
            if m != target:
                sym[target, :] ^= sym[m, :]
    return sym


def peel_symbols(eq_ptr, eq_idx, sym, known):
    n = known.shape[0]
    n_eq = eq_ptr.shape[0] - 1
    verified = np.zeros(n_eq, dtype=np.bool_)
    progress = True
    while progress:
        progress = False
        for e in range(n_eq):
            if verified[e]:
                continue
            unknowns = 0
            last_unknown = -1
            for j in range(eq_ptr[e], eq_ptr[e + 1]):
                if not known[eq_idx[j]]:
                    unknowns += 1
                    last_unknown = eq_idx[j]
            if unknowns == 0:
                acc = np.zeros(sym.shape[1], dtype=np.uint8)
                for j in range(eq_ptr[e], eq_ptr[e + 1]):
                    acc ^= sym[eq_idx[j], :]
                if acc.any():
                    return 2, e
                verified[e] = True
            elif unknowns == 1:
                sym[last_unknown, :] = 0
                for j in range(eq_ptr[e], eq_ptr[e + 1]):
                    m = eq_idx[j]
                    if m != last_unknown:
                        sym[last_unknown, :] ^= sym[m, :]
                known[last_unknown] = True
                verified[e] = True
                progress = True
    for i in range(n):
        if not known[i]:
            return 1, -1
    return 0, -1


def peel_pattern(eq_ptr, eq_idx, known):
    # Batch passes: solve every degree-1 equation of the pass at once; the
    # closure is order independent.
    if known.all():
        return True
    counts = np.diff(eq_ptr)
    while True:
        unk = ~known[eq_idx]
        unk_per_eq = np.add.reduceat(unk, eq_ptr[:-1]) if len(eq_idx) else np.zeros(0, int)
        deg1 = unk_per_eq == 1
        if not deg1.any():
            break
        member_deg1 = np.repeat(deg1, counts)
        solved = np.unique(eq_idx[member_deg1 & unk])
        known[solved] = True
        if known.all():
            return True
    return bool(known.all())


def count_distinct(rows):
    """Distinct values in each row of a 2-D integer array."""
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    srt = np.sort(rows, axis=1)
    return 1 + np.count_nonzero(np.diff(srt, axis=1), axis=1).astype(np.int64)


def first_fail_count(eq_ptr, eq_idx, perm):
    """Smallest erasure count e such that erasing perm[:e] stalls peeling.

    Monotone in e (peeling succeeds from any superset of a decodable known
    set), so binary search applies. Returns a value in [1, n].
    """
    n = perm.shape[0]

    def fails(e):
        known = np.ones(n, dtype=np.bool_)
        known[perm[:e]] = False
        return not peel_pattern(eq_ptr, eq_idx, known)

    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
