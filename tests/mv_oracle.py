"""Reference Mayer-Vietoris pages for the tests: the subspace formulas.

    Z_r(p, n)   = { x in F_p T^n : D x in F_{p+r} T^(n+1) }
    dim E_r^{p,q} = dim((Z_r + F_{p+1}) / F_{p+1})
                  - dim((D Z_{r-1}(p-r+1) + F_{p+1}) / F_{p+1})

This is how ``virtbetti.spectral`` computed every page entry before it read
the pages off persistence pairs.  A ``DoubleComplex`` takes only the order
of the basis from the engine and builds its own D as the sum of a
horizontal and a vertical differential, each found by a slow scan of the
all-subsets intersection table; so the pages here never read the engine's
columns, and the tests compare those columns with this D bit for bit.  F_p
is the bit mask of the basis vectors whose filtration is at least p, read
off each basis entry, so the pages do not depend on the order of the basis
either; quotienting by F_p clears its bits.  Their spans and kernels come
from ``gf2_oracle``, not from the engine's ``gf2``.  ``engine_complex``
reads the engine's basis, one entry per vector, and its columns.

It also keeps the arrangement's old all-subsets routes: the table of every
subset's intersection, empty or not, and the virtual polynomial that
intersects the pieces of each subset afresh; and ``pair_counts``, the
persistence pairing as ``MVSpectralSequence`` counted it before clearing:
every column of every degree reduced, the degrees in the basis's order.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations, groupby, islice
from operator import itemgetter
from typing import Sequence

from gf2_oracle import kernel_vectors, span_dim
from virtbetti.gf2 import pivot_rows
from virtbetti.simplicial import Subcomplex
from virtbetti.spectral import _total_complex
from virtbetti.stratified import inclusion_exclusion


class DoubleComplex:
    """D = D_h + D_v on a given basis: {degree n: [(p, subset, simplex)]}."""

    def __init__(self, arrangement, basis):
        self.arrangement = arrangement
        self.m = len(arrangement.pieces)
        self.basis = basis
        self.table = intersections(arrangement)
        self.position = {n: {e: i for i, e in enumerate(entries)} for n, entries in basis.items()}
        self.cols_h = horizontal_columns(self)
        self.cols_v = vertical_columns(self)
        self.cols = {n: [h ^ v for h, v in zip(self.cols_h[n], self.cols_v[n])] for n in basis}


def engine_complex(arrangement) -> tuple[dict[int, list], dict[int, list[int]]]:
    """The engine's basis of D, entries (p, subset, cell) by degree, and its columns."""
    runs, _, cols = _total_complex(arrangement)
    return {n: [(p, subset, s) for p, subset, run in basis for s in run]
            for n, basis in runs.items()}, cols


def double_complex(arrangement) -> DoubleComplex:
    """The oracle's D on the engine's basis order."""
    return DoubleComplex(arrangement, engine_complex(arrangement)[0])


def pair_counts(basis, cols) -> Counter:
    """{(p, q, gap): pairs} from reducing every column of D: each degree's
    columns go to ``pivot_rows`` one filtration block at a time, highest p
    first and, inside a block, from the end of the basis list; the pivots a
    block adds pair a vector at its p with the vector low, the pivot's key."""
    pairs: Counter = Counter()
    for n, entries in basis.items():
        upper = [p for p, _, _ in basis.get(n + 1, [])]
        levels = reversed([p for p, _, _ in entries])
        pivots: dict[int, int] = {}
        for p, block in groupby(zip(levels, reversed(cols[n])), key=itemgetter(0)):
            found = len(pivots)
            pivot_rows((col for _, col in block), pivots)
            pairs.update((p, n - p, upper[low] - p) for low in islice(pivots, found, None))
    return pairs


def apply(cols: Sequence[int], x: int) -> int:
    """The image of the vector x under the map with these columns."""
    out = 0
    while x:
        j = (x & -x).bit_length() - 1
        out ^= cols[j]
        x &= x - 1
    return out


def differentials_square_to_zero(dc: DoubleComplex) -> bool:
    """d_h^2 = 0, d_v^2 = 0 and d_h d_v = d_v d_h on every basis vector."""
    for n in dc.basis:
        ch, cv = dc.cols_h[n], dc.cols_v[n]
        nh = dc.cols_h.get(n + 1, [])
        nv = dc.cols_v.get(n + 1, [])
        for j in range(len(ch)):
            if apply(nh, ch[j]) != 0 or apply(nv, cv[j]) != 0:
                return False
            if apply(nh, cv[j]) != apply(nv, ch[j]):
                return False
    return True


def _filtration_mask(dc, n: int, p: int) -> int:
    """F_p in degree n: the bits of the basis vectors with filtration >= p."""
    return sum(1 << i for i, (pp, _, _) in enumerate(dc.basis.get(n, [])) if pp >= p)


def _rows(dc, n: int) -> list[int]:
    """Rows of the degree-n total differential (the transpose of its columns)."""
    out = [0] * len(dc.basis.get(n + 1, []))
    for j, c in enumerate(dc.cols.get(n, [])):
        while c:
            i = (c & -c).bit_length() - 1
            out[i] |= 1 << j
            c &= c - 1
    return out


def _z_space(dc, r: int, p: int, n: int) -> list[int]:
    """Basis of Z_r(p, n) = {x in F_p T^n : D x in F_{p+r} T^{n+1}}."""
    support = _filtration_mask(dc, n, p)
    if support == 0:
        return []
    size = len(dc.basis[n])
    keep = _filtration_mask(dc, n + 1, p + r)
    # the rows of D outside F_{p+r}, and a unit row per coordinate outside F_p
    rows = [row for i, row in enumerate(_rows(dc, n)) if not keep >> i & 1]
    rows += [1 << j for j in range(size) if not support >> j & 1]
    return kernel_vectors(rows, size)


def _d_of_z(dc, r: int, p: int, n: int) -> list[int]:
    """D-images (degree n+1) of a basis of Z_r(p, n)."""
    support = _filtration_mask(dc, n, p)
    if support == 0:
        return []
    cols = dc.cols.get(n, [])
    if r <= 0:
        return [c for j, c in enumerate(cols) if support >> j & 1]
    return [apply(cols, z) for z in _z_space(dc, r, p, n)]


def entry_dim(dc, r: int, p: int, q: int) -> int:
    n = p + q
    strip = ~_filtration_mask(dc, n, p + 1)
    numerator = [z & strip for z in _z_space(dc, r, p, n)]
    denominator = [v & strip for v in _d_of_z(dc, r - 1, p - r + 1, n - 1)]
    return span_dim(numerator) - span_dim(denominator)


def d_rank(dc, r: int, p: int, q: int) -> int:
    """Rank of the induced differential E_r^{p,q} -> E_r^{p+r, q-r+1}."""
    n = p + q
    strip = ~_filtration_mask(dc, n + 1, p + r + 1)
    cols = dc.cols.get(n, [])
    images = [apply(cols, z) & strip for z in _z_space(dc, r, p, n)]
    boundary = [v & strip for v in _d_of_z(dc, r - 1, p + 1, n)]
    return span_dim(images + boundary) - span_dim(boundary)


def page_dims(dc, r: int) -> dict[tuple[int, int], int]:
    """Nonzero entries of E_r."""
    dims = {}
    for p in range(dc.m):
        for q in range(dc.arrangement.total.dim + 1):
            d = entry_dim(dc, r, p, q)
            if d:
                dims[(p, q)] = d
    return dims


def stable_from(dc) -> tuple[int, tuple[int, ...]]:
    """First page from which every differential vanishes and the pages agree,
    and the page indices whose ranks were checked zero."""
    m = dc.m
    r_inf = max(1, m)
    zero_from = r_inf
    for r in range(r_inf - 1, 0, -1):
        all_zero = all(
            d_rank(dc, r, p, q) == 0
            for p in range(m)
            for q in range(dc.arrangement.total.dim + 1)
        )
        if all_zero and page_dims(dc, r) == page_dims(dc, r + 1):
            zero_from = r
        else:
            break
    return zero_from, tuple(range(zero_from, r_inf))


def vertical_columns(dc) -> dict[int, list[int]]:
    """Columns of the vertical differential, found by scanning each
    intersection for the cofaces of every simplex."""
    out = {}
    for n, entries in dc.basis.items():
        pos_next = dc.position.get(n + 1, {})
        cols = []
        for p, subset, s in entries:
            v = 0
            for t in dc.table[subset]:
                if len(t) == len(s) + 1 and set(s) < set(t):
                    v |= 1 << pos_next[(p, subset, t)]
            cols.append(v)
        out[n] = cols
    return out


def horizontal_columns(dc) -> dict[int, list[int]]:
    """Columns of the horizontal differential, found by trying every piece
    outside each basis entry's subset against the all-subsets table."""
    out = {}
    for n, entries in dc.basis.items():
        pos_next = dc.position.get(n + 1, {})
        cols = []
        for p, subset, s in entries:
            h = 0
            for j in range(dc.m):
                bigger = tuple(sorted(set(subset) | {j}))
                if j not in subset and s in dc.table[bigger]:
                    h |= 1 << pos_next[(p + 1, bigger, s)]
            cols.append(h)
        out[n] = cols
    return out


def intersections(arrangement) -> dict[tuple[int, ...], frozenset]:
    """Every nonempty index subset's intersection as cells, empty ones
    included, ordered by size, then lexicographically."""
    pieces = [sc for _, sc in arrangement.pieces]
    inters: dict[tuple[int, ...], frozenset] = {}
    for size in range(1, len(pieces) + 1):
        for subset in combinations(range(len(pieces)), size):
            if size == 1:
                inters[subset] = pieces[subset[0]].cells
            else:
                inters[subset] = inters[subset[:-1]] & pieces[subset[-1]].cells
    return inters


def virtual_betti(arrangement):
    """Inclusion-exclusion over the Poincare polynomials of the pieces and
    of all their intersections, each intersection built from the pieces."""
    subs = [sub for _, sub in arrangement.pieces]
    polys = {}
    for size in range(2, len(subs) + 1):
        for subset in combinations(range(len(subs)), size):
            meet = reduce(Subcomplex.intersection, (subs[i] for i in subset))
            polys[frozenset(subset)] = meet.as_complex().poincare_polynomial()
    pieces = [(name, sub.as_complex().poincare_polynomial()) for name, sub in arrangement.pieces]
    return inclusion_exclusion(pieces, polys)
