"""Closed covers: a complex with an ordered cover by subcomplexes, its nerve
and the virtual Betti numbers by inclusion-exclusion over that nerve.

One budget, MAX_SIMPLICES cells in the meets of two or more pieces, bounds a
cover of any length.  Scene files load arrangements and ``vbetti`` evaluates
them without the Mayer-Vietoris engine, which lives in ``spectral`` and
imports this module.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .errors import NotACover, Record, TooManySimplices
from .simplicial import MAX_SIMPLICES, SimplicialComplex, Subcomplex

__all__ = ["Arrangement"]


class Arrangement(Record):
    """A complex together with an ordered closed cover by subcomplexes."""

    total: SimplicialComplex
    pieces: tuple[tuple[str, Subcomplex], ...]

    def __post_init__(self):
        if not self.pieces:
            raise NotACover("an arrangement needs at least one piece")
        for name, piece in self.pieces:
            if piece.parent is not self.total:
                raise NotACover(f"piece {name!r} is not a subcomplex of the total complex")
        union = frozenset().union(*(piece.cells for _, piece in self.pieces))
        if union != self.total.cells:
            missing = sorted(self.total.cells - union)
            raise NotACover(
                "pieces do not cover the total complex",
                missing=[repr(self.total.named(s)) for s in missing[:5]],
                missing_count=len(missing),
            )

    @cached_property
    def nerve(self) -> dict[tuple[int, ...], frozenset]:
        """{ascending piece indices: cells of their intersection} for every
        nonempty intersection, ordered by size, then lexicographically.

        Closed pieces meet exactly when they share a vertex, so a subset grows
        only by the larger-index pieces holding a vertex of its meet, looked up
        in an index of the vertices in two or more pieces.  The meets of two or
        more pieces may hold MAX_SIMPLICES cells: the one past that is the last.
        """
        pieces = [piece.cells for _, piece in self.pieces]
        points = frozenset((v,) for v in range(len(self.total.vertices)))
        holders: dict[int, list[int]] = {}
        for i, piece in enumerate(pieces):
            for (v,) in piece & points:
                holders.setdefault(v, []).append(i)
        shared = {v: held for v, held in holders.items() if len(held) > 1}
        nerve: dict[tuple[int, ...], frozenset] = {}
        level = {(i,): piece for i, piece in enumerate(pieces) if piece}
        cells = 0
        while level:
            nerve.update(level)
            below, level = level, {}
            for subset, meet in below.items():
                for j in sorted({k for (v,) in meet & points
                                 for k in shared.get(v, ()) if k > subset[-1]}):
                    level[subset + (j,)] = wider = meet & pieces[j]
                    cells += len(wider)
                    if cells > MAX_SIMPLICES:
                        raise TooManySimplices("the meets of the pieces exceed the supported size",
                                               limit=MAX_SIMPLICES)
        return nerve

    def virtual_betti(self) -> IntPolynomial:
        """Inclusion-exclusion over the nerve: the sum of
        (-1)^(|S|+1) P(X_S) over every nonempty intersection X_S, since an
        empty intersection adds zero.  Equal meets add their signs first, so
        each distinct meet's polynomial is computed once.

        Meaningful when the pieces and all their intersections are compact
        nonsingular models (a normal-crossing style cover).
        """
        from .polynomial import IntPolynomial  # the MV engine needs no Z[t]

        signs: Counter[frozenset] = Counter()
        for subset, meet in self.nerve.items():
            signs[meet] += 1 if len(subset) % 2 else -1
        return sum((IntPolynomial.monomial(sign, 0) * self.total.standalone(meet).poincare_polynomial()
                    for meet, sign in signs.items() if sign), IntPolynomial.zero())
