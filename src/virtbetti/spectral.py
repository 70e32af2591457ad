"""Mayer-Vietoris spectral sequence over GF(2) for closed covers.

Given a complex covered by closed subcomplexes X_1..X_m, the double
complex has C^{p,q} = direct sum over (p+1)-fold intersections of their
simplicial q-cochains, with horizontal differential the (sign-free, mod 2)
sum of restrictions to deeper intersections and vertical differential the
simplicial coboundary.  The two differentials commute and each squares to
zero, so their sum is a differential D on the total complex, and the
filtration by column produces the pages.

D is built once, as one list of columns per total degree, reduced once by
the elimination kernel ``gf2.pivot_rows``, and dropped: a spectral
sequence keeps only the persistence pairs.  Basis vectors of degree n are
listed by ascending filtration p, so the low bit of a column is its entry
of least filtration.  The degrees go in ascending n, and each degree's
columns go to the kernel by descending position: one filtration block at
a time, highest p first, each from its end.  Each nonzero reduced column
x is filed under its low bit low(x), and pairs its basis vector with
low(x); the pair's gap is p(low(x)) - p(x).  The number of pairs between
two levels does not depend on the order inside a level.  A pair with gap
r is one rank of the differential d_r, so it lives on E_0..E_r and is gone
from E_{r+1} on; an unpaired vector lives forever.  Hence

    dim E_r^{p,q} = #{vectors at (p, q) unpaired or paired with gap >= r}
    rank d_r^{p,q} = #{pairs starting at (p, q) with gap exactly r}

(Edelsbrunner-Letscher-Zomorodian 2002; Basu-Parida 2017).  Clearing
(Chen-Kerber 2011; Bauer, Ripser 2021): in degree n, the column of every
vector y that was a low in degree n - 1 is fed as zero.  It would reduce
to zero anyway: the reduced column with low y is y plus later positions
and D of it is 0, so D y is a sum of the columns of later positions, all
fed before y's.  When the homology is small, that is about half the columns.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations, groupby, islice, repeat
from math import inf
from typing import Mapping

from .errors import ConvergenceMismatch, NotACover, Record, TooManyPieces
from .gf2 import pivot_rows
from .polynomial import IntPolynomial
from .simplicial import BettiVector, SimplicialComplex, Subcomplex

__all__ = [
    "Arrangement",
    "MAX_PIECES",
    "SpectralPage",
    "FiltrationProfile",
    "StabilizationCertificate",
    "MVSpectralSequence",
    "row_alternating_sums",
]

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

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.pieces]

    @cached_property
    def nerve(self) -> dict[tuple[int, ...], frozenset]:
        """{ascending piece indices: cells of their intersection} for every
        nonempty intersection, ordered by size, then lexicographically.

        A subset is extended by a larger index only while its intersection
        is nonempty, so no superset of an empty intersection is ever formed.
        """
        nerve: dict[tuple[int, ...], frozenset] = {}
        level = {(i,): piece.cells for i, (_, piece) in enumerate(self.pieces)}
        while level:
            level = {subset: meet for subset, meet in level.items() if meet}
            nerve.update(level)
            level = {
                subset + (j,): meet & self.pieces[j][1].cells
                for subset, meet in level.items()
                for j in range(subset[-1] + 1, len(self.pieces))
            }
        return nerve

    def virtual_betti(self) -> IntPolynomial:
        """Inclusion-exclusion over the nerve: the sum of
        (-1)^(|S|+1) P(X_S) over every nonempty intersection X_S, since an
        empty intersection adds zero.

        Meaningful when the pieces and all their intersections are compact
        nonsingular models (a normal-crossing style cover).
        """
        total = IntPolynomial.zero()
        for subset, meet in self.nerve.items():
            poly = self.total.standalone(meet).poincare_polynomial()
            total = total + poly if len(subset) % 2 else total - poly
        return total


class SpectralPage(Record):
    """Dimensions of one page; dims holds the nonzero entries only."""

    r: int
    dims: Mapping[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def max_p(self) -> int:
        return max((p for p, _ in self.dims), default=0)

    def max_q(self) -> int:
        return max((q for _, q in self.dims), default=0)

    def euler(self) -> int:
        return sum((-1) ** (p + q) * d for (p, q), d in self.dims.items())

    def table_lines(self) -> list[str]:
        """One line per row q, top row first, columns by filtration p."""
        max_q, max_p = self.max_q(), self.max_p()
        labels = [f"p={p}" for p in range(max_p + 1)]
        width = max(map(len, [labels[-1], *map(str, self.dims.values())]))
        lines = [f"E_{self.r}:"]
        for q in range(max_q, -1, -1):
            lines.append(f"  q={q} | " + " ".join(
                str(self.dim(p, q)).rjust(width) for p in range(max_p + 1)
            ))
        lines.append("        " + "-" * ((width + 1) * (max_p + 1) - 1))
        lines.append("        " + " ".join(label.rjust(width) for label in labels))
        return lines


class FiltrationProfile(Record):
    """w(i, j) = dim of the infinity page at column i-j, row j."""

    w: Mapping[tuple[int, int], int]
    top_degree: int

    def value(self, i: int, j: int) -> int:
        return self.w.get((i, j), 0)

    def diagonal_sums(self) -> list[int]:
        return [sum(self.value(i, j) for j in range(i + 1)) for i in range(self.top_degree + 1)]

    def row_alternating_sums(self) -> list[int]:
        """For each j: (-1)^j * sum_i (-1)^i w(i, j)."""
        top = self.top_degree
        return [sum((-1) ** (i - j) * self.value(i, j) for i in range(j, top + 1))
                for j in range(top + 1)]


class StabilizationCertificate(Record):
    """Witness that the pages are constant from stable_from on."""

    stable_from: int
    column_bound: int
    checked_zero_ranks: tuple[int, ...]
    detail: str


def _total_complex(arrangement: Arrangement) -> tuple[dict, dict, dict]:
    """The basis and the columns of the total differential D, by degree n = p + q.

    runs[n] is the basis of degree n as runs (p, subset, cells), by ascending
    p, and inside a level in the reverse of nerve and cell order, since
    ``_pair`` feeds each level from its end; levels[n] is {p: vectors}.
    cols[n][j] is D of vector j, a bit mask over the basis of degree n + 1.
    D sends (subset, s) to every (subset + one piece, s) and (subset, s + one
    vertex); so each entry (subset, t) sets its bit in the column of every
    entry with one index of subset or one vertex of t dropped, all placed
    before it: the smaller subsets first, and each meet by ascending dimension.
    """
    nerve = arrangement.nerve
    runs: dict[int, list] = {}
    levels: dict[int, Counter] = {}
    cols: dict[int, list[int]] = {}
    position: dict[tuple, dict] = {}  # {subset: {cell: its position in its degree}}
    for _, group in groupby(nerve, key=len):  # the nerve is ordered by size
        for subset in reversed(list(group)):
            p = len(subset) - 1
            position[subset] = at = {}
            # positions under each subset with one index dropped: a nerve member too
            wider = [position[subset[:i] + subset[i + 1:]] for i in range(p + 1)] if p else ()
            for k, run in groupby(sorted(sorted(nerve[subset], reverse=True), key=len), key=len):
                run, n = list(run), p + k - 1
                runs.setdefault(n, []).append((p, subset, run))
                levels.setdefault(n, Counter())[p] += len(run)
                column, below = cols.setdefault(n, []), cols.get(n - 1)
                bits = range(len(column), len(column) + len(run))
                at.update(zip(run, bits))
                column += [0] * len(run)
                for t, bit in zip(run, map((1).__lshift__, bits)):
                    for facet_at in wider:
                        below[facet_at[t]] |= bit
                    if k > 1:
                        for facet in combinations(t, k - 1):
                            below[at[facet]] |= bit
    return runs, levels, cols


class MVSpectralSequence:
    """All pages, differential ranks and the induced filtration for a cover."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        self._m = len(arrangement.pieces)
        self._page_cache: dict[int, SpectralPage] = {}
        _, levels, cols = _total_complex(arrangement)
        self._pair(levels, cols)

    def dim_total(self, n: int) -> int:
        return sum(self.cpq_dim(p, n - p) for p in range(min(n, self._m - 1) + 1))

    def cpq_dim(self, p: int, q: int) -> int:
        """Dimension of C^{p,q} in the double complex."""
        return sum(self._lifetimes.get((p, q), {}).values())

    def intersection_complex(self, subset: tuple[int, ...]) -> frozenset:
        """Named simplices of the pieces' intersection; empty outside the nerve."""
        meet = self.arrangement.nerve.get(tuple(sorted(subset)), ())
        return frozenset(map(self.arrangement.total.named, meet))

    # -- pages ---------------------------------------------------------------

    def _pair(self, levels: Mapping[int, Counter], cols: dict[int, list[int]]):
        """Reduce the total differential once, with clearing, and count its
        persistence pairs as (p, q, gap): the pivots a filtration block adds,
        in insertion order.  Each degree's columns leave ``cols`` once reduced;
        each vector's lifetime follows from the pairs (gap inf if unpaired)."""
        pairs: Counter = Counter()
        lows: dict[int, int] = {}
        for n in sorted(levels):
            column = cols.pop(n)
            for low in lows:
                column[low] = 0
            above = levels.get(n + 1, {})
            upper = list(chain.from_iterable(map(repeat, above, above.values())))
            lows, end = {}, len(column)
            for p, size in reversed(levels[n].items()):
                found, end = len(lows), end - size
                pivot_rows(reversed(column[end:end + size]), lows)
                pairs.update((p, n - p, upper[low] - p) for low in islice(lows, found, None))
        self._pair_counts = pairs
        self._lifetimes = {(p, n - p): Counter({inf: size})
                           for n, level in levels.items() for p, size in level.items()}
        for (p, q, gap), count in pairs.items():
            for key in ((p, q), (p + gap, q + 1 - gap)):
                self._lifetimes[key][gap] += count
                self._lifetimes[key][inf] -= count

    def entry_dim(self, r: int, p: int, q: int) -> int:
        """Vectors at (p, q) that are unpaired or whose pair has gap >= r."""
        if r < 1 or p < 0 or q < 0:
            raise ValueError("page index must be >= 1 and (p, q) nonnegative")
        lives = self._lifetimes.get((p, q), {})
        return sum(count for gap, count in lives.items() if gap >= r)

    def d_rank(self, r: int, p: int, q: int) -> int:
        """Rank of the induced differential E_r^{p,q} -> E_r^{p+r, q-r+1}:
        the pairs that start at (p, q) with gap exactly r."""
        return self._pair_counts[(p, q, r)]

    def page(self, r: int) -> SpectralPage:
        if r not in self._page_cache:
            dims = {key: self.entry_dim(r, *key) for key in sorted(self._lifetimes)}
            self._page_cache[r] = SpectralPage(r, {key: d for key, d in dims.items() if d})
        return self._page_cache[r]

    def pages(self, up_to: int) -> list[SpectralPage]:
        if up_to < 1:
            raise ValueError("page index must be >= 1")
        return [self.page(r) for r in range(1, up_to + 1)]

    @property
    def infinity_index(self) -> int:
        """E_r = E_infinity for r >= number of pieces (targets leave the columns)."""
        return max(1, self._m)

    def infinity_page(self) -> SpectralPage:
        return self.page(self.infinity_index)

    def stabilization_certificate(self) -> StabilizationCertificate:
        """Only pairs of gap r tell E_r from E_{r+1}, so the pages stop
        changing one past the largest gap."""
        m = self._m
        r_inf = self.infinity_index
        zero_from = 1 + max((gap for _, _, gap in self._pair_counts), default=0)
        checked = tuple(range(zero_from, r_inf))
        detail = (
            f"differentials vanish identically from page {zero_from} on: "
            f"ranks checked zero for r in {list(checked)}; for r >= {r_inf} every "
            f"differential leaves the column range 0..{m - 1}"
        )
        return StabilizationCertificate(zero_from, m, checked, detail)

    # -- derived data ---------------------------------------------------------

    def converged_betti(self) -> BettiVector:
        """Total dimensions of the infinity page; must match direct homology."""
        inf = self.infinity_page()
        computed = BettiVector(sum(inf.dim(p, n - p) for p in range(min(n, self._m - 1) + 1))
                               for n in range(self.arrangement.total.dim + 1))
        direct = self.arrangement.total.betti_mod2()
        if computed != direct:
            raise ConvergenceMismatch(
                "spectral sequence limit disagrees with direct homology "
                "(this indicates an implementation bug, never a valid outcome)",
                converged=list(computed),
                direct=list(direct),
            )
        return computed

    def filtration_profile(self) -> FiltrationProfile:
        inf = self.infinity_page()
        top = self.arrangement.total.dim
        w = {(i, j): inf.dim(i - j, j) for i in range(top + 1) for j in range(i + 1)}
        return FiltrationProfile({key: d for key, d in w.items() if d}, top)


def row_alternating_sums(page: SpectralPage) -> list[int]:
    """For each row q: the alternating sum over p of the entry dimensions."""
    return [sum((-1) ** p * page.dim(p, q) for p in range(page.max_p() + 1))
            for q in range(page.max_q() + 1)]
