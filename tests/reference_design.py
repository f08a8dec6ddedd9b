"""Reference design check: the exact failure rate of a chunk dispersal
design, by enumerating every gamma-N node subset.

``dispersal.verify_design`` estimates this rate by Monte Carlo over
uniformly drawn subsets; on a design small enough to enumerate, its
estimate must lie within a few standard errors of the exact rate here.
"""

import math
from fractions import Fraction
from itertools import combinations


def exact_failure_rate(design, gamma: float, eta: float) -> tuple[float, int]:
    """(failure rate, subset count): the fraction of the C(N, ceil(gamma*N))
    node subsets whose distinct chunks fall below eta * M, both products
    taken exactly on the decimals gamma and eta were written as."""
    n = design.n_nodes
    take = math.ceil(Fraction(str(gamma)) * n)
    need = Fraction(str(eta)) * design.n_chunks
    failures = sum(
        len(set(design.assignments[list(subset)].ravel().tolist())) < need
        for subset in combinations(range(n), take)
    )
    total = math.comb(n, take)
    return failures / total, total
