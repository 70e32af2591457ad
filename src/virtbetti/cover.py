"""Closed covers: a complex with an ordered cover by subcomplexes, its nerve
and the virtual Betti numbers by inclusion-exclusion over that nerve.

Scene files load arrangements and ``vbetti`` evaluates them without the
Mayer-Vietoris engine, which lives in ``spectral`` and imports this module.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotACover, Record, TooManyPieces, TooManySimplices
from .simplicial import MAX_SIMPLICES, SimplicialComplex, Subcomplex

__all__ = ["Arrangement", "MAX_PIECES"]

# The MV build and inclusion-exclusion both walk the nerve, which holds all
# 2^m - 1 subsets of the m pieces when every piece shares a simplex.
MAX_PIECES = 16


class Arrangement(Record):
    """A complex together with an ordered closed cover by subcomplexes."""

    total: SimplicialComplex
    pieces: tuple[tuple[str, Subcomplex], ...]

    def __post_init__(self):
        if not self.pieces:
            raise NotACover("an arrangement needs at least one piece")
        if len(self.pieces) > MAX_PIECES:
            raise TooManyPieces(f"an arrangement has at most {MAX_PIECES} pieces",
                                pieces=len(self.pieces), limit=MAX_PIECES)
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

        A subset is extended by a larger index only while its intersection
        is nonempty, so no superset of an empty intersection is ever formed.
        The meets of two or more pieces may hold MAX_SIMPLICES cells in all:
        the meet that passes that budget is the last one built.
        """
        nerve: dict[tuple[int, ...], frozenset] = {}
        level = {(i,): piece.cells for i, (_, piece) in enumerate(self.pieces)}
        cells = 0
        while level:
            level = {subset: meet for subset, meet in level.items() if meet}
            nerve.update(level)
            below, level = level, {}
            for subset, meet in below.items():
                for j in range(subset[-1] + 1, len(self.pieces)):
                    level[subset + (j,)] = wider = meet & self.pieces[j][1].cells
                    cells += len(wider)
                    if cells > MAX_SIMPLICES:
                        raise TooManySimplices("the meets of the pieces exceed the supported size",
                                               limit=MAX_SIMPLICES)
        return nerve

    def virtual_betti(self) -> IntPolynomial:
        """Inclusion-exclusion over the nerve: the sum of
        (-1)^(|S|+1) P(X_S) over every nonempty intersection X_S, since an
        empty intersection adds zero.

        Meaningful when the pieces and all their intersections are compact
        nonsingular models (a normal-crossing style cover).
        """
        from .polynomial import IntPolynomial  # the MV engine needs no Z[t]

        total = IntPolynomial.zero()
        for subset, meet in self.nerve.items():
            poly = self.total.standalone(meet).poincare_polynomial()
            total = total + poly if len(subset) % 2 else total - poly
        return total
