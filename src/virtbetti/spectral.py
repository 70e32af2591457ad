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
sequence keeps only the persistence pairs and the size of each entry
C^{p,q}.  Basis vectors of degree n are listed in runs, one per subset and
cell size, by ascending filtration p, so the low bit of a column is its
entry of least filtration; each run carries its base, the position of
degree n + 1 that bit 0 of its columns stands for.  The degrees go in ascending n, and
each degree's columns go to the kernel by descending position: one
filtration block at a time, highest p first, each run from its end.  Each
nonzero reduced column x is filed under its low bit low(x), narrow, and
pairs its basis vector with low(x); the pair's gap is p(low(x)) - p(x).
The number of pairs between two blocks does not depend on the order inside
a block.  A pair with gap r is one rank of the differential d_r, so both
its vectors live on E_0..E_r and are gone from E_{r+1} on; an unpaired
vector lives forever.  Hence

    dim E_r^{p,q} = dim C^{p,q} - #{pairs with gap < r starting or ending at (p, q)}
    rank d_r^{p,q} = #{pairs starting at (p, q) with gap exactly r}

(Edelsbrunner-Letscher-Zomorodian 2002; Basu-Parida 2017).  Clearing
(Chen-Kerber 2011; Bauer, Ripser 2021): in degree n, the column of every
vector y that was a low in degree n - 1 is fed as zero.  It would reduce
to zero anyway: the reduced column with low y is y plus later positions
and D of it is 0, so D y is a sum of the columns of later positions, all
fed before y's.  When the homology is small, that is about half the columns.

The cover itself, ``Arrangement`` with its nerve, lives in ``cover`` and the
E_infinity profile's type, ``WeightArray``, in ``triangle``.  This module
does not import the weight search in ``weights``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, count, groupby, islice, repeat
from operator import itemgetter
from typing import Mapping

from .cover import Arrangement
from .errors import ConvergenceMismatch, Record
from .gf2 import pivot_rows
from .simplicial import BettiVector
from .triangle import WeightArray

__all__ = [
    "Arrangement",
    "SpectralPage",
    "StabilizationCertificate",
    "MVSpectralSequence",
    "row_alternating_sums",
]

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


class StabilizationCertificate(Record):
    """Witness that the pages are constant from stable_from on."""

    stable_from: int
    detail: str


def _total_complex(arrangement: Arrangement) -> tuple[dict, dict]:
    """The basis and the columns of the total differential D, by degree n = p + q.

    runs[n] is the basis of degree n as runs (p, subset, cells, base), by
    ascending p, and inside a block in the reverse of nerve and cell order,
    since ``_pair`` feeds each block from its end.  cols[n][j] is D of
    vector j, narrow: bit i of a column of a run stands for the vector at
    position base + i of degree n + 1.  A run's base is the number of
    vectors of degree n + 1 laid out before it: every target of its columns
    is laid out later, by the subset's next cell size or by a larger subset,
    so a column spans only what follows its run.
    D sends (subset, s) to every (subset + one piece, s) and (subset, s + one
    vertex); so each entry (subset, t) sets its bit in the column of every
    entry with one index of subset or one vertex of t dropped, all placed
    before it: the smaller subsets first, and each meet by ascending dimension.
    Each meet is ordered by one int-keyed sort, from a rank table of the
    total's cells (dimension ascending, reverse lexicographic inside) that is
    dropped before the first column is built.
    """
    nerve = arrangement.nerve
    rank = dict(zip(chain.from_iterable(map(reversed, arrangement.total._by_dim.values())),
                    count()))
    ordered = {subset: sorted(meet, key=rank.__getitem__) for subset, meet in nerve.items()}
    del rank
    runs: dict[int, list] = {}
    cols: dict[int, list[int]] = {}
    position: dict[tuple, dict] = {}  # {subset: {cell: its position in its degree}}
    base: dict[tuple, int] = {}  # {(subset, cell size): the base of its run}
    for _, group in groupby(nerve, key=len):  # the nerve is ordered by size
        for subset in reversed(list(group)):
            p = len(subset) - 1
            position[subset] = at = {}
            # each subset with one index dropped: a nerve member too
            smaller = [subset[:i] + subset[i + 1:] for i in range(p + 1)] if p else ()
            for k, run in groupby(ordered.pop(subset), key=len):
                run, n = list(run), p + k - 1
                column, below = cols.setdefault(n, []), cols.get(n - 1)
                base[subset, k] = len(cols.get(n + 1, ()))
                runs.setdefault(n, []).append((p, subset, run, base[subset, k]))
                start = len(column)
                at.update(zip(run, count(start)))
                column += [0] * len(run)
                # entry i of this run is bit start + i - base of each column it is in
                wider = [(position[s], start - base[s, k]) for s in smaller]
                own = start - base[subset, k - 1] if k > 1 else 0
                for i, t in enumerate(run):
                    for facet_at, shift in wider:
                        below[facet_at[t]] |= 1 << (i + shift)
                    if k > 1:
                        bit = 1 << (i + own)
                        for facet in combinations(t, k - 1):
                            below[at[facet]] |= bit
    return runs, cols


class MVSpectralSequence:
    """All pages, differential ranks and the induced filtration for a cover."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        self._m = len(arrangement.pieces)
        self._page_cache: dict[int, SpectralPage] = {}
        self._pair(*_total_complex(arrangement))

    def dim_total(self, n: int) -> int:
        return sum(self.cpq_dim(p, n - p) for p in range(min(n, self._m - 1) + 1))

    def cpq_dim(self, p: int, q: int) -> int:
        """Dimension of C^{p,q} in the double complex."""
        return self._sizes[p, q]

    def intersection_complex(self, subset: tuple[int, ...]) -> frozenset:
        """Named simplices of the pieces' intersection; empty outside the nerve."""
        meet = self.arrangement.nerve.get(tuple(sorted(subset)), ())
        return frozenset(map(self.arrangement.total.named, meet))

    # -- pages ---------------------------------------------------------------

    def _pair(self, runs: Mapping[int, list], cols: dict):
        """Reduce the total differential once, with clearing, and count its
        persistence pairs as (p, q, gap): the pivots a filtration block adds,
        counted by the filtration of their low, one count per gap.  Each
        degree's columns leave ``cols`` once reduced, and go to the kernel
        narrow, run by run from the run's base; the size of each entry
        C^{p,q} is counted from the runs on the way."""
        pairs: Counter = Counter()
        sizes: Counter = Counter()
        lows: dict[int, int] = {}
        for n in sorted(runs):
            column = cols.pop(n)
            for low in lows:
                column[low] = 0
            upper = list(chain.from_iterable(
                repeat(p, len(cells)) for p, _, cells, _ in runs.get(n + 1, ())))
            lows, end = {}, len(column)
            for p, block in groupby(reversed(runs[n]), key=itemgetter(0)):
                found = len(lows)
                for _, _, cells, base in block:
                    sizes[p, n - p] += len(cells)
                    start, end = end, end - len(cells)
                    pivot_rows(zip(repeat(base), reversed(column[end:start])), lows)
                gaps = Counter(map(upper.__getitem__, islice(lows, found, None)))
                for target, number in gaps.items():
                    pairs[p, n - p, target - p] += number
        self._pair_counts = pairs
        self._sizes = sizes

    def entry_dim(self, r: int, p: int, q: int) -> int:
        """dim C^{p,q} less the vectors at (p, q) whose pair has gap < r.  A
        pair of gap g starts at (p, q) only if its end's row q + 1 - g is
        not negative, and ends there only if g <= p: no larger gap is read."""
        if r < 1 or p < 0 or q < 0:
            raise ValueError("page index must be >= 1 and (p, q) nonnegative")
        pairs = self._pair_counts
        return self._sizes[p, q] - sum(pairs[p, q, gap] + pairs[p - gap, q + gap - 1, gap]
                                       for gap in range(min(r, max(p, q + 1) + 1)))

    def d_rank(self, r: int, p: int, q: int) -> int:
        """Rank of the induced differential E_r^{p,q} -> E_r^{p+r, q-r+1}:
        the pairs that start at (p, q) with gap exactly r."""
        return self._pair_counts[(p, q, r)]

    def page(self, r: int) -> SpectralPage:
        if r not in self._page_cache:
            dims = {key: self.entry_dim(r, *key) for key in sorted(self._sizes)}
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
        r_inf = self.infinity_index
        zero_from = 1 + max((gap for _, _, gap in self._pair_counts), default=0)
        detail = (
            f"differentials vanish identically from page {zero_from} on: "
            f"ranks checked zero for r in {list(range(zero_from, r_inf))}; for r >= {r_inf} "
            f"every differential leaves the column range 0..{self._m - 1}"
        )
        return StabilizationCertificate(zero_from, detail)

    # -- derived data ---------------------------------------------------------

    def converged_betti(self) -> BettiVector:
        """Total dimensions of the infinity page; must match direct homology."""
        computed = BettiVector(self.filtration_profile().diagonal_sums())
        direct = self.arrangement.total.betti_mod2()
        if computed != direct:
            raise ConvergenceMismatch(
                "spectral sequence limit disagrees with direct homology "
                "(this indicates an implementation bug, never a valid outcome)",
                converged=list(computed),
                direct=list(direct),
            )
        return computed

    def filtration_profile(self) -> WeightArray:
        """w(i, j) = dim of the infinity page at column i - j, row j."""
        limit = self.infinity_page()
        return WeightArray(tuple(tuple(limit.dim(i - j, j) for j in range(i + 1))
                                 for i in range(self.arrangement.total.dim + 1)))


def row_alternating_sums(page: SpectralPage) -> list[int]:
    """For each row q: the alternating sum over p of the entry dimensions."""
    return [sum((-1) ** p * page.dim(p, q) for p in range(page.max_p() + 1))
            for q in range(page.max_q() + 1)]
