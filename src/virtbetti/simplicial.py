"""Finite abstract simplicial complexes and mod-2 (co)homology.

Geometry is never represented: a complex is a face-closed family of vertex
subsets, and the correspondence between a variety and its combinatorial
model is the caller's responsibility.  Inside the engine a simplex is a
cell: the ascending tuple of its vertices' positions in the complex's
vertex order, so lexicographic order is plain tuple order.  Vertex names
appear only at the edges.  ``_normalize`` turns a batch of vertex lists into
cells in one pass of nested maps; the ``simplices`` and ``simplices_of_dim``
views, ``maximal_simplices``, ``repr`` and every error message turn cells
back into names.  ``_closure`` builds faces by dimension, top down: a level
is the facets of the one above plus the given cells of its size, so
``_assemble`` only sorts each level.  Where every vertex is known to be in
the complex (``from_maximal``, the product) the vertex level is given, not
derived: the facets of the edges are never made.  The size bound counts the
given vertex level first, is checked per simplex before any level, then
chunk by chunk.
Every complex and every subcomplex from ``subcomplex`` is the face closure
of the simplices that generate it.  ``_check_face_closed`` checks a family
for missing facets only where cells can arrive open, a ``Subcomplex`` built
directly from cells: every other route is face-closed by construction.
Matrices are built in lexicographic simplex order, so every Betti
computation is reproducible.
One routine computes Betti numbers, top degree down with clearing: the
relative cohomology of a pair (K, L); ordinary homology is (K, empty), as
over a field dim H^q = dim H_q.  In degrees q >= 1 a coboundary row is
built only once it meets another: the faces of a cell come in lexicographic
order, so the first one in the relative basis is the row's low, and a row
whose low no pivot holds yet is filed under it unbuilt until a later row
meets it.  The rows go in reverse lexicographic order, as Ripser reduces the
coboundary, so their lows descend and few rows meet a pivot that earlier
XORs have widened.  One helper, ``_row``, builds every coboundary row: those of
``relative_coboundary_matrix`` full width, and those fed to the elimination
and the filed ones it meets narrow, from the row's low up.  A finished
degree keeps only its pivots' keys, which is all that clearing reads.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, filterfalse, groupby, islice, repeat
from typing import Container, Hashable, Iterable, Iterator, Sequence

from .errors import NotFaceClosed, Record, TooManySimplices, UnknownVertex
from .gf2 import GF2Matrix, pivot_rows, rank

__all__ = [
    "SimplicialComplex",
    "Subcomplex",
    "PairSpace",
    "BettiVector",
    "product_complex",
    "maximal_simplices",
    "MAX_SIMPLICES",
]

MAX_SIMPLICES = 100_000

Vertex = Hashable
Simplex = tuple


class BettiVector(tuple):
    """Mod-2 Betti numbers by degree, trailing zeros trimmed."""

    def __new__(cls, dims: Iterable[int] = ()):
        ds = list(dims)
        if any(d < 0 for d in ds):
            raise ValueError("negative Betti number")
        while ds and ds[-1] == 0:
            ds.pop()
        return super().__new__(cls, ds)

    def get(self, i: int) -> int:
        return self[i] if 0 <= i < len(self) else 0

    def euler(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self))

    def as_polynomial(self) -> IntPolynomial:
        from .polynomial import IntPolynomial  # homology alone needs no Z[t]

        return IntPolynomial(self)

    def __repr__(self) -> str:
        return f"BettiVector({tuple(self)})"


def _normalize(index: dict, simplices: Iterable[Sequence[Vertex]]) -> list[Simplex]:
    """The cells of a batch of simplices: each one's ascending vertex
    positions, without repeats.  One pass of nested maps, no frame per simplex."""
    try:
        return list(map(tuple, map(sorted, map(set, map(partial(map, index.__getitem__),
                                                        simplices)))))
    except KeyError as exc:  # raised by the first unknown vertex in input order
        v = exc.args[0]
        raise UnknownVertex(f"unknown vertex {v!r}", vertex=repr(v)) from None


def _grouped(cells: Iterable[Simplex]) -> dict[int, list[Simplex]]:
    """{dimension: cells} of a family of cells, each dimension in input order
    (the sort by size is stable)."""
    return {k - 1: list(run) for k, run in groupby(sorted(cells, key=len), key=len)}


def _closure(cells: Iterable[Simplex], vertices: int | None = None) -> dict[int, set[Simplex]]:
    """{dimension: cells} of every nonempty face of the given cells.  Given a
    vertex count, level 0 is every position below it: it is counted first and
    never built from the facets of the 1-cells."""
    given = _grouped(cells)
    top = max(given, default=-1)
    size = vertices or 0
    # a simplex of n vertices has 2^n - 1 faces: bound them before building any
    if size + (1 << (top + 1)) - 1 > 4 * MAX_SIMPLICES:
        raise TooManySimplices("face closure exceeds the supported size", limit=MAX_SIMPLICES)
    faces: dict[int, set[Simplex]] = {}
    bottom = 0 if vertices is None else 1
    for d in range(top, bottom - 1, -1):  # the facets of the level above, and the given cells
        facets = chain.from_iterable(map(combinations, faces.get(d + 1, ()), repeat(d + 1)))
        faces[d] = level = set(given.get(d, ()))
        while size + len(level) <= 4 * MAX_SIMPLICES:  # checked before each chunk is added
            first = next(facets, None)
            if first is None:
                break
            level.update((first,), islice(facets, 1 << 16))
        else:
            raise TooManySimplices("face closure exceeds the supported size", limit=MAX_SIMPLICES)
        size += len(level)
    if vertices is not None:
        faces[0] = set(zip(range(vertices)))
    return faces


def _row(cols: dict[Simplex, int], faces: Iterable[Simplex], low: int = 0) -> int:
    """A coboundary row from ``low`` up: bit j - low for each face at
    position j of the basis ``cols``."""
    bits = 0
    for face in faces:
        j = cols.get(face)
        if j is not None:
            bits |= 1 << (j - low)
    return bits


def _check_face_closed(cells: frozenset, verts: tuple) -> None:
    """Raise unless every facet of every simplex is in the family."""
    for s in cells:
        if len(s) > 1 and not cells.issuperset(combinations(s, len(s) - 1)):
            face = next(f for f in combinations(s, len(s) - 1) if f not in cells)
            s, face = _named(verts, (s, face))
            raise NotFaceClosed(f"simplex {s!r} lacks face {face!r}",
                                simplex=repr(s), missing_face=repr(face))


def _check_within(parent: SimplicialComplex, cells: frozenset) -> None:
    """Raise unless every cell is one of the parent's."""
    stray = cells - parent.cells
    if stray:
        s = min(_named(parent.vertices, stray), key=repr)
        raise UnknownVertex(
            f"simplex {s!r} does not belong to the parent complex", simplex=repr(s)
        )


def _named(verts: tuple, cells: Iterable[Simplex]) -> list[Simplex]:
    """The vertex names of each cell."""
    return [tuple([verts[i] for i in c]) for c in cells]


def _maximal(cells: frozenset) -> frozenset:
    """The non-facets of a face-closed family: exactly its maximal members."""
    return cells.difference(chain.from_iterable(
        map(combinations, cells, map((-1).__add__, map(len, cells)))))


class SimplicialComplex:
    """Immutable abstract simplicial complex with an explicit vertex order."""

    __slots__ = ("_vertices", "_index", "_cells", "_by_dim")

    @classmethod
    def from_maximal(
        cls, vertices: Iterable[Vertex], maximal: Iterable[Sequence[Vertex]]
    ) -> SimplicialComplex:
        """Build from maximal simplices; the face closure is computed here.

        Every listed vertex becomes a 0-simplex even if no maximal simplex
        mentions it, so isolated points are representable.
        """
        verts = tuple(vertices)
        index = {v: i for i, v in enumerate(verts)}
        faces = _closure(_normalize(index, maximal), len(verts))
        return cls.__new__(cls)._assemble(verts, faces, index)

    def _assemble(self, verts: tuple, faces: dict, index: dict | None = None) -> SimplicialComplex:
        """Every construction ends here, cells by dimension: vertex and size checks,
        sort.  Face closure is the caller's, by construction."""
        if index is None:
            index = {v: i for i, v in enumerate(verts)}
        if len(index) < len(verts):
            v = next(v for i, v in enumerate(verts) if index[v] != i)
            raise UnknownVertex(f"duplicate vertex {v!r} in vertex list", vertex=repr(v))
        size = sum(map(len, faces.values()))
        if size > MAX_SIMPLICES:
            raise TooManySimplices(f"{size} simplices exceed the supported size",
                                   limit=MAX_SIMPLICES)
        self._vertices = verts
        self._index = index
        self._cells = frozenset().union(*faces.values())
        self._by_dim = {d: sorted(faces[d]) for d in sorted(faces) if faces[d]}
        return self

    @classmethod
    def empty(cls) -> SimplicialComplex:
        return cls.from_maximal((), ())

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def simplices(self) -> frozenset:
        """The simplices as tuples of vertex names, built on each call."""
        return frozenset(_named(self._vertices, self._cells))

    @property
    def cells(self) -> frozenset:
        """The simplices as ascending tuples of vertex positions."""
        return self._cells

    def named(self, cell: Simplex) -> Simplex:
        """The vertex names of a cell."""
        return _named(self._vertices, (cell,))[0]

    def sort_key(self, simplex: Sequence[Vertex]) -> tuple:
        """The positions of a named simplex's vertices: lexicographic order."""
        return tuple(map(self._index.__getitem__, simplex))

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex."""
        return max(self._by_dim) if self._by_dim else -1

    def n_simplices(self) -> int:
        return len(self._cells)

    def simplices_of_dim(self, d: int) -> list[Simplex]:
        return _named(self._vertices, self._by_dim.get(d, ()))

    def simplex_counts(self) -> list[int]:
        return [len(self._by_dim.get(d, [])) for d in range(self.dim + 1)]

    def standalone(self, cells: frozenset) -> SimplicialComplex:
        """Complex on a face-closed subset of the cells, vertex order restricted."""
        position = {i: j for j, i in enumerate(sorted({i for s in cells for i in s}))}
        verts = tuple(self._vertices[i] for i in position)
        return SimplicialComplex.__new__(SimplicialComplex)._assemble(
            verts, _grouped(tuple(map(position.__getitem__, s)) for s in cells))

    def boundary_matrix(self, d: int) -> GF2Matrix:
        """Mod-2 boundary from d-chains to (d-1)-chains, lexicographic bases:
        the transpose of the coboundary of the pair (self, empty)."""
        return PairSpace(self, self.subcomplex()).relative_coboundary_matrix(d - 1).transpose()

    def betti_mod2(self) -> BettiVector:
        """dim_GF(2) of each homology group: over a field it equals the
        cohomology of the pair (self, empty)."""
        return PairSpace(self, self.subcomplex()).betti_compact_supports()

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.simplex_counts()))

    def poincare_polynomial(self) -> IntPolynomial:
        """Sum of b_i t^i; meaningful as a Poincare polynomial for models of
        compact nonsingular varieties (the caller asserts that)."""
        return self.betti_mod2().as_polynomial()

    def subcomplex(self, *, maximal: Iterable[Sequence[Vertex]] = ()) -> Subcomplex:
        """The face closure of the given simplices, as a subcomplex."""
        given = _normalize(self._index, maximal)
        cells = frozenset().union(*_closure(given).values())
        # the parent is face-closed: holding the given cells, it holds their
        # closure; else the full check names the least stray face
        if not self._cells.issuperset(given):
            _check_within(self, cells)
        return Subcomplex._trusted(self, cells)

    def full_subcomplex(self) -> Subcomplex:
        return Subcomplex._trusted(self, self._cells)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self._vertices == other._vertices
            and self._cells == other._cells
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._cells))

    def __repr__(self) -> str:
        return f"<SimplicialComplex {len(self._vertices)} vertices, {len(self._cells)} simplices, dim {self.dim}>"


class Subcomplex(Record):
    """Face-closed subset of a parent complex's cells."""

    parent: SimplicialComplex
    cells: frozenset

    def __post_init__(self):
        _check_within(self.parent, self.cells)
        _check_face_closed(self.cells, self.parent.vertices)

    @property
    def simplices(self) -> frozenset:
        """The simplices as tuples of vertex names, built on each call."""
        return frozenset(_named(self.parent.vertices, self.cells))

    def is_empty(self) -> bool:
        return not self.cells

    def as_complex(self) -> SimplicialComplex:
        """Standalone complex with the parent's vertex order restricted."""
        return self.parent.standalone(self.cells)

    def union(self, other: Subcomplex) -> Subcomplex:
        if other.parent is not self.parent:
            raise ValueError("subcomplexes of different parents")
        return Subcomplex._trusted(self.parent, self.cells | other.cells)

    def __repr__(self) -> str:
        return f"<Subcomplex {len(self.cells)} simplices>"


class PairSpace(Record):
    """Compactification pair (total, boundary) modelling |total| - |boundary|.

    Cohomology with compact supports of the open part is the relative
    cohomology of the pair, computed from cochains that vanish on the
    boundary simplices.
    """

    total: SimplicialComplex
    boundary: Subcomplex

    def __post_init__(self):
        if self.boundary.parent is not self.total:
            raise ValueError("boundary must be a subcomplex of the total complex")

    def _basis(self, d: int) -> dict[Simplex, int]:
        """{relative d-simplex: position} in lexicographic order, built once."""
        bases = self.__dict__.setdefault("_bases", {})  # not a field: no ==, hash or repr
        if d not in bases:
            rel = self.total._by_dim.get(d, ())
            if self.boundary.cells:
                rel = list(filterfalse(self.boundary.cells.__contains__, rel))
            bases[d] = dict(zip(rel, range(len(rel))))
        return bases[d]

    def relative_coboundary_matrix(self, q: int, cleared: Container[int] = ()) -> GF2Matrix:
        """Coboundary on relative cochains: rows = (q+1)-simplices, zero at ``cleared``; cols = q."""
        cols, rows = self._basis(q), self._basis(q + 1)
        bits = tuple([0 if i in cleared else _row(cols, combinations(s, q + 1))
                      for i, s in enumerate(rows)])
        return GF2Matrix._trusted(len(rows), len(cols), bits)

    def _unfiled_rows(self, q: int, cleared: Container[int],
                      filed: dict) -> Iterator[tuple[int, int]]:
        """The rows of delta^q outside ``cleared`` whose low a pivot in
        ``filed`` holds, each as (low, row from the low up).  Each other
        nonzero row is filed there under its low, unbuilt: as its cell.
        The rows go from the last (q+1)-cell to the first, so their lows
        descend and most find their low free; in lexicographic order each
        new row met a pivot widened by earlier XORs (the delta^1 pivots of
        the 129 x 129 grid torus held 822 M bits, against 12.9 M reversed).
        No rank and no clearing key depends on the order."""
        cols = self._basis(q)
        for s, i in reversed(self._basis(q + 1).items()):
            if i in cleared:
                continue
            faces = combinations(s, q + 1)
            for face in faces:  # in basis order: the first face in the basis is the low
                j = cols.get(face)
                if j is not None:
                    if j in filed:
                        yield j, _row(cols, faces, j) | 1  # the low face, read already, is bit 0
                    else:
                        filed[j] = s
                    break

    def _pivot_keys(self, q: int, cleared: Container[int]) -> set[int]:
        """The lows of an echelon basis of the rows of delta^q outside
        ``cleared``; the rows themselves are dropped on return."""
        cols, filed = self._basis(q), {}
        return set(pivot_rows(self._unfiled_rows(q, cleared, filed), filed,
                              lambda s, low: _row(cols, combinations(s, q + 1), low)))

    def betti_compact_supports(self) -> BettiVector:
        """dim H^q(total, boundary; GF(2)) for each q, top degree down.

        Each pivot row e_j + (higher bits) of delta^q is a boundary, so row
        j of delta^{q-1} is a sum of later rows: zeroing all such j keeps the
        rank.  A row of delta^q (q >= 1) that no other row meets is never
        built: it stays filed under its low, and ``pivot_rows`` builds a
        filed row only when a row meets it.  The lows of every echelon basis
        of a span are the same set, so filing changes no rank and no key that
        clears the degree below.  delta^0 clears nothing further and is the
        last rank: it goes to ``rank`` as a matrix, the one GF(2) rank call
        of a Betti computation.
        """
        top = self.total.dim
        ranks, cleared = [0] * (top + 2), set()  # rank delta^{q-1} at index q
        for q in range(top - 1, 0, -1):
            cleared = self._pivot_keys(q, cleared)
            ranks[q + 1] = len(cleared)
        if top > 0:
            ranks[1] = rank(self.relative_coboundary_matrix(0, cleared))
        return BettiVector(len(self._basis(q)) - ranks[q] - ranks[q + 1]
                           for q in range(top + 1))

    def euler_compact_supports(self) -> int:
        """Alternating sum of relative simplex counts; equals the alternating
        sum of relative cohomology dimensions."""
        top = self.total.dim
        return sum((-1) ** d * len(self._basis(d)) for d in range(top + 1))


def _staircase_paths(s: int, t: int):
    """Monotone unit-step lattice paths from (0, 0) to (s, t)."""
    if s == 0 and t == 0:
        yield ((0, 0),)
        return
    if s > 0:
        for path in _staircase_paths(s - 1, t):
            yield path + ((s, t),)
    if t > 0:
        for path in _staircase_paths(s, t - 1):
            yield path + ((s, t),)


def product_complex(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |a| x |b| on the product vertex order.

    Maximal simplices are the monotone lattice paths through each product
    of maximal simplices; the Betti numbers of the result satisfy the
    Kunneth convolution formula.  Vertex (u_i, v_j) has position
    i * len(b.vertices) + j, so the positions along a monotone path ascend.
    """
    if not a.cells or not b.cells:
        return SimplicialComplex.empty()
    verts = tuple((u, v) for u in a.vertices for v in b.vertices)
    width = len(b.vertices)
    # one int object per position, shared by every cell that holds it
    grid = [list(range(i * width, (i + 1) * width)) for i in range(len(a.vertices))]
    maximal_a, maximal_b = _maximal(a.cells), _maximal(b.cells)
    # the paths depend only on the two dimensions: made once per pair of them
    paths = {(s, t): tuple(_staircase_paths(s, t))
             for s in {len(sa) - 1 for sa in maximal_a} for t in {len(sb) - 1 for sb in maximal_b}}
    cells = (
        tuple(grid[sa[i]][sb[j]] for i, j in path)
        for sa in maximal_a
        for sb in maximal_b
        for path in paths[len(sa) - 1, len(sb) - 1]
    )
    faces = _closure(cells, len(verts))  # every product vertex lies in some cell
    return SimplicialComplex.__new__(SimplicialComplex)._assemble(verts, faces)


def maximal_simplices(k: SimplicialComplex, simplices: Iterable[Simplex] | None = None) -> list[Simplex]:
    """Inclusion-maximal simplices of a complex (or of a face-closed set of
    its simplices, named as its ``simplices`` view names them), in
    lexicographic order by the complex's vertex indexing."""
    if simplices is None:
        return _named(k.vertices, sorted(_maximal(k.cells)))
    return sorted(_maximal(frozenset(simplices)), key=k.sort_key)
