"""Reference homology for the tests: row-wise boundary matrices.

This is how ``virtbetti.simplicial`` built boundary matrices and computed
Betti numbers before both became the pair (K, empty) of the relative
cochain complex.  Row i of the degree-d matrix is the (d-1)-simplex i and
holds a bit for each d-simplex it is a face of; the Betti numbers follow
from the ranks, b_d = #d-simplices - rank d_d - rank d_{d+1}.  For a pair
(K, L) the simplices of L are dropped from every basis, which gives the
relative chain complex; over a field its homology has the dimensions of
the relative cohomology.
"""

from __future__ import annotations

from itertools import combinations

from virtbetti.gf2 import GF2Matrix, rank
from virtbetti.simplicial import BettiVector, PairSpace, SimplicialComplex


def boundary_matrix(k: SimplicialComplex, d: int, removed: frozenset = frozenset()) -> GF2Matrix:
    """Mod-2 boundary from d-chains to (d-1)-chains of k, without the
    simplices in ``removed``, lexicographic bases."""
    cols = [s for s in k.simplices_of_dim(d) if s not in removed]
    rows = [s for s in k.simplices_of_dim(d - 1) if s not in removed]
    row_pos = {s: i for i, s in enumerate(rows)}
    bits = [0] * len(rows)
    for j, s in enumerate(cols):
        if len(s) == 1:
            continue
        for face in combinations(s, len(s) - 1):
            i = row_pos.get(face)
            if i is not None:
                bits[i] ^= 1 << j
    return GF2Matrix(len(rows), len(cols), tuple(bits))


def betti_mod2(k: SimplicialComplex, removed: frozenset = frozenset()) -> BettiVector:
    """dim_GF(2) of each homology group of k relative to ``removed``."""
    if not k.simplices:
        return BettiVector(())
    ranks = [rank(boundary_matrix(k, d, removed)) for d in range(k.dim + 2)]
    counts = [
        sum(1 for s in k.simplices_of_dim(d) if s not in removed) for d in range(k.dim + 1)
    ]
    return BettiVector(counts[d] - ranks[d] - ranks[d + 1] for d in range(k.dim + 1))


def betti_compact_supports(pair: PairSpace) -> BettiVector:
    """Relative homology of the pair, which over GF(2) has the dimensions
    of its relative cohomology."""
    return betti_mod2(pair.total, pair.boundary.simplices)
