"""Reference homology for the tests: row-wise boundary matrices.

This is how ``virtbetti.simplicial`` built boundary matrices and computed
Betti numbers before both became the pair (K, empty) of the relative
cochain complex.  Row i of the degree-d matrix is the (d-1)-simplex i and
holds a bit for each d-simplex it is a face of; the Betti numbers follow
from the ranks, b_d = #d-simplices - rank d_d - rank d_{d+1}.  For a pair
(K, L) the simplices of L are dropped from every basis, which gives the
relative chain complex; over a field its homology has the dimensions of
the relative cohomology.

``cleared_homology`` is how ``PairSpace.betti_compact_supports`` took its
ranks before it filed rows that no other row meets: every row of
``relative_coboundary_matrix`` built and fed to ``pivot_rows``, top degree
down with clearing.  It returns the pivots of each degree, whose keys are
what clearing reads.

It also keeps the old ways from vertex lists to simplices: a face closure
that builds frozensets and sorts them by ``repr``, a subcomplex closure
that sorts each maximal simplex by vertex index, and ``maximal_simplices``
by comparing every simplex with every maximal one found so far.
``cell_closure`` is the face closure of cells one simplex at a time, into
one set, with its size bound checked before each simplex, as the engine
built it before it went level by level and grouped by dimension.

``NameComplex`` is how the engine stored a complex before it kept cells
(ascending tuples of vertex positions): tuples of vertex names, normalized
by ``_normalize``, closed by ``_closure`` and sorted in each dimension by
``sort_key`` in ``_assemble``, with the same checks and error messages.
``product`` is the staircase product built on those names.  The row-wise
functions above read any object with ``simplices``, ``simplices_of_dim``
and ``dim``, so they run on a ``NameComplex`` as well.
"""

from __future__ import annotations

from itertools import combinations

from virtbetti.errors import NotFaceClosed, TooManySimplices, UnknownVertex
from virtbetti.gf2 import GF2Matrix, pivot_rows, rank
from virtbetti.simplicial import (
    MAX_SIMPLICES,
    BettiVector,
    PairSpace,
    SimplicialComplex,
    Subcomplex,
    _staircase_paths,
)


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


def cleared_homology(pair: PairSpace) -> tuple[BettiVector, dict[int, dict[int, int]]]:
    """The Betti numbers of the pair and {q: pivots of delta^q} for q >= 1,
    every coboundary row built."""
    top = pair.total.dim
    ranks, pivots, by_degree = [0] * (top + 2), {}, {}  # rank delta^{q-1} at index q
    for q in range(top - 1, 0, -1):
        pivots = by_degree[q] = pivot_rows(pair.relative_coboundary_matrix(q, pivots).row_bits)
        ranks[q + 1] = len(pivots)
    if top > 0:
        ranks[1] = rank(pair.relative_coboundary_matrix(0, pivots))
    counts = [pair.relative_coboundary_matrix(q).cols for q in range(top + 1)]
    return BettiVector(counts[q] - ranks[q] - ranks[q + 1] for q in range(top + 1)), by_degree


def closure_of(maximal) -> set[frozenset]:
    """Every nonempty face of the given vertex lists, as frozensets."""
    faces: set[frozenset] = set()
    for simplex in maximal:
        fs = frozenset(simplex)
        for k in range(1, len(fs) + 1):
            for face in combinations(sorted(fs, key=repr), k):
                faces.add(frozenset(face))
    return faces


def from_maximal(vertices, maximal) -> SimplicialComplex:
    """The complex generated by ``maximal`` plus a 0-simplex per vertex."""
    verts = tuple(vertices)
    faces = closure_of(maximal) | {frozenset((v,)) for v in verts}
    return SimplicialComplex(verts, [tuple(f) for f in faces])


def subcomplex(k: SimplicialComplex, simplices=(), maximal=()) -> Subcomplex:
    """The subcomplex of k holding ``simplices`` and every face of ``maximal``."""
    chosen = {tuple(sorted(set(s), key=k.vertex_index)) for s in simplices}
    for s in maximal:
        ordered = sorted(set(s), key=k.vertex_index)
        for size in range(1, len(ordered) + 1):
            chosen.update(combinations(ordered, size))
    return Subcomplex(k, frozenset(map(k.sort_key, chosen)))


def maximal_simplices(k: SimplicialComplex, simplices=None) -> list:
    """Inclusion-maximal simplices of k (or of a simplex set), sorted by
    k's vertex indexing."""
    pool = k.simplices if simplices is None else frozenset(simplices)
    out = []
    for s in sorted(pool, key=lambda s: (-len(s), k.sort_key(s))):
        if not any(set(s) < set(m) for m in out):
            out.append(s)
    return sorted(out, key=k.sort_key)


def cell_closure(cells) -> set[tuple]:
    """Every nonempty face of the given cells, in one set."""
    faces: set[tuple] = set()
    for t in cells:
        if t in faces:  # the family stays face-closed, so its faces are too
            continue
        # a simplex of n vertices has 2^n - 1 faces: bound them before building any
        if len(faces) + (1 << len(t)) - 1 > 4 * MAX_SIMPLICES:
            raise TooManySimplices("face closure exceeds the supported size", limit=MAX_SIMPLICES)
        for k in range(1, len(t) + 1):
            faces.update(combinations(t, k))
    return faces


def _normalize(index: dict, simplex) -> tuple:
    """The vertices of a simplex, without repeats, in index order."""
    try:
        return tuple(sorted(set(simplex), key=index.__getitem__))
    except KeyError as exc:
        v = exc.args[0]
        raise UnknownVertex(f"unknown vertex {v!r}", vertex=repr(v)) from None


def _closure(index: dict, maximal) -> set[tuple]:
    """Every nonempty face of the given simplices, normalized."""
    faces: set[tuple] = set()
    for simplex in maximal:
        t = _normalize(index, simplex)
        if t in faces:
            continue
        if len(faces) + (1 << len(t)) - 1 > 4 * MAX_SIMPLICES:
            raise TooManySimplices("face closure exceeds the supported size", limit=MAX_SIMPLICES)
        for k in range(1, len(t) + 1):
            faces.update(combinations(t, k))
    return faces


def _check_face_closed(simplices: frozenset) -> None:
    """Raise unless every facet of every simplex is in the family."""
    for s in simplices:
        if len(s) > 1:
            for face in combinations(s, len(s) - 1):
                if face not in simplices:
                    raise NotFaceClosed(
                        f"simplex {s!r} lacks face {face!r}",
                        simplex=repr(s),
                        missing_face=repr(face),
                    )


class NameComplex:
    """A complex held as tuples of vertex names."""

    def __init__(self, vertices, simplices):
        verts = tuple(vertices)
        index = {v: i for i, v in enumerate(verts)}
        self._assemble(verts, index, {_normalize(index, s) for s in simplices} - {()})

    @classmethod
    def from_maximal(cls, vertices, maximal) -> NameComplex:
        verts = tuple(vertices)
        index = {v: i for i, v in enumerate(verts)}
        faces = _closure(index, maximal)
        faces.update((v,) for v in verts)
        return cls.__new__(cls)._assemble(verts, index, faces)

    def _assemble(self, verts: tuple, index: dict, simplices: set) -> NameComplex:
        if len(index) < len(verts):
            v = next(v for i, v in enumerate(verts) if index[v] != i)
            raise UnknownVertex(f"duplicate vertex {v!r} in vertex list", vertex=repr(v))
        if len(simplices) > MAX_SIMPLICES:
            raise TooManySimplices(f"{len(simplices)} simplices exceed the supported size",
                                   limit=MAX_SIMPLICES)
        self.vertices = verts
        self.index = index
        self.simplices = frozenset(simplices)
        by_dim: dict[int, list] = {}
        for s in simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self.by_dim = {d: sorted(ss, key=self.sort_key) for d, ss in sorted(by_dim.items())}
        _check_face_closed(self.simplices)
        for v in verts:
            if (v,) not in self.simplices:
                raise NotFaceClosed(f"vertex {v!r} has no singleton simplex", vertex=repr(v))
        return self

    def sort_key(self, simplex) -> tuple:
        return tuple(map(self.index.__getitem__, simplex))

    @property
    def dim(self) -> int:
        return max(self.by_dim) if self.by_dim else -1

    def simplices_of_dim(self, d: int) -> list:
        return list(self.by_dim.get(d, []))

    def subcomplex(self, simplices=(), maximal=()) -> frozenset:
        """The simplices of the subcomplex, with the old checks."""
        chosen = frozenset({_normalize(self.index, s) for s in simplices}
                           | _closure(self.index, maximal))
        stray = chosen - self.simplices
        if stray:
            s = min(stray, key=repr)
            raise UnknownVertex(
                f"simplex {s!r} does not belong to the parent complex", simplex=repr(s)
            )
        _check_face_closed(chosen)
        return chosen


def product(a: NameComplex, b: NameComplex) -> NameComplex:
    """Staircase triangulation of |a| x |b| on named vertices (u, v)."""
    if not a.simplices or not b.simplices:
        return NameComplex((), ())
    verts = tuple((u, v) for u in a.vertices for v in b.vertices)
    cells = []
    for sa in maximal_simplices(a):
        for sb in maximal_simplices(b):
            for path in _staircase_paths(len(sa) - 1, len(sb) - 1):
                cells.append(tuple((sa[i], sb[j]) for i, j in path))
    return NameComplex.from_maximal(verts, cells)
