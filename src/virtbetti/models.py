"""Ready-made combinatorial models: spheres, tori, curve unions, and the
normal-crossing surface made of two spheres and a torus.

The surface model is the workhorse fixture.  Its three closed pieces meet
pairwise in circles, all three circles pass through the same four points,
and the complement of the double-point curves has seventeen components
(six two-cells on each sphere, four two-cells and one annulus on the
torus).  The construction:

* the torus is an 8 x 8 diagonal grid, coordinates (i, j) mod 8;
* the sphere/torus curves are the boundaries of the grid rectangles
  [0,4] x [1,5] and [3,9] x [2,6]; each bounds a disk on the torus,
  together they wrap the meridian direction, and they cross exactly at
  the four grid points a=(4,2), b=(0,2), c=(1,5), d=(3,5);
* the sphere/sphere circle runs off the torus through a, b, c, d with two
  fresh vertices per arc;
* each sphere is triangulated by coning its six curve-bounded faces from
  a fresh apex.

Euler characteristics: spheres 2, torus 0, union 84 - 324 + 248 = 8.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import Record
from .simplicial import SimplicialComplex, Subcomplex

__all__ = [
    "point",
    "points",
    "circle",
    "sphere",
    "torus_grid",
    "torus_minimal",
    "projective_plane",
    "tangent_circles",
    "SURFACE_CURVES",
    "SURFACE_PIECES",
    "SurfaceModel",
    "surface_model",
]


def point() -> SimplicialComplex:
    return SimplicialComplex.from_maximal(("p0",), ())


def points(n: int) -> SimplicialComplex:
    """n isolated vertices."""
    return SimplicialComplex.from_maximal(tuple(f"p{i}" for i in range(n)), ())


def circle(n: int = 3) -> SimplicialComplex:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("a simplicial circle needs at least 3 vertices")
    verts = tuple(f"v{i}" for i in range(n))
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return SimplicialComplex.from_maximal(verts, edges)


def sphere(n: int) -> SimplicialComplex:
    """S^n as the boundary of the (n+1)-simplex; S^0 is two points."""
    if n < 0:
        raise ValueError("negative sphere dimension")
    verts = tuple(f"v{i}" for i in range(n + 2))
    maximal = list(combinations(verts, n + 1))
    return SimplicialComplex.from_maximal(verts, maximal)


def _grid(nt: int, nf: int) -> tuple[tuple, list[tuple]]:
    """Vertices t{i}_{j} and triangles of the nt x nf grid torus, each square
    split along the (i,j)-(i+1,j+1) diagonal."""
    name = lambda i, j: f"t{i % nt}_{j % nf}"
    tris = []
    for i in range(nt):
        for j in range(nf):
            tris.append((name(i, j), name(i + 1, j), name(i + 1, j + 1)))
            tris.append((name(i, j), name(i, j + 1), name(i + 1, j + 1)))
    return tuple(name(i, j) for i in range(nt) for j in range(nf)), tris


def torus_grid(nt: int = 8, nf: int = 8) -> SimplicialComplex:
    """Torus as an nt x nf grid; valid for nt, nf >= 3."""
    if nt < 3 or nf < 3:
        raise ValueError("grid torus needs at least 3 cells per direction")
    return SimplicialComplex.from_maximal(*_grid(nt, nf))


def torus_minimal() -> SimplicialComplex:
    """The 7-vertex torus: vertices Z/7, triangles {i, i+1, i+3}, {i, i+2, i+3}."""
    verts = tuple(f"v{i}" for i in range(7))
    tris = []
    for i in range(7):
        tris.append((verts[i], verts[(i + 1) % 7], verts[(i + 3) % 7]))
        tris.append((verts[i], verts[(i + 2) % 7], verts[(i + 3) % 7]))
    return SimplicialComplex.from_maximal(verts, tris)


def projective_plane() -> SimplicialComplex:
    """The 6-vertex projective plane (hemi-icosahedron)."""
    tris = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    ]
    verts = tuple(f"v{i}" for i in range(1, 7))
    return SimplicialComplex.from_maximal(
        verts, [tuple(f"v{i}" for i in t) for t in tris]
    )


def tangent_circle_components() -> tuple[list, list]:
    """Maximal simplices of the two circles inside tangent_circles()."""
    first = [("u", "x0"), ("x0", "v"), ("v", "x1"), ("x1", "u")]
    second = [("u", "y0"), ("y0", "v"), ("v", "y1"), ("y1", "u")]
    return first, second


def tangent_circles() -> SimplicialComplex:
    """Two circles glued at two common points (the double-tangency curve).

    Connected, with first mod-2 cohomology of dimension 3.
    """
    first, second = tangent_circle_components()
    return SimplicialComplex.from_maximal(("u", "v", "x0", "x1", "y0", "y1"), first + second)


# --- the two-spheres-plus-torus surface -----------------------------------

_N = 8  # grid period in both directions


def _g(i: int, j: int) -> str:
    return f"t{i % _N}_{j % _N}"


# crossing points of the two torus curves, shared by all three pieces
_A = _g(4, 2)
_B = _g(0, 2)
_C = _g(1, 5)
_D = _g(3, 5)

# curve13 (sphere1 meets torus): boundary of grid rectangle [0,4] x [1,5],
# split into arcs at the four crossing points
_ARC13 = {
    ("a", "d"): [_A, _g(4, 3), _g(4, 4), _g(4, 5), _D],
    ("d", "c"): [_D, _g(2, 5), _C],
    ("c", "b"): [_C, _g(0, 5), _g(0, 4), _g(0, 3), _B],
    ("b", "a"): [_B, _g(0, 1), _g(1, 1), _g(2, 1), _g(3, 1), _g(4, 1), _A],
}

# curve23 (sphere2 meets torus): boundary of grid rectangle [3,9] x [2,6]
_ARC23 = {
    ("a", "b"): [_A, _g(5, 2), _g(6, 2), _g(7, 2), _B],
    ("b", "c"): [_B, _g(1, 2), _g(1, 3), _g(1, 4), _C],
    ("c", "d"): [_C, _g(1, 6), _g(0, 6), _g(7, 6), _g(6, 6), _g(5, 6), _g(4, 6), _g(3, 6), _D],
    ("d", "a"): [_D, _g(3, 4), _g(3, 3), _g(3, 2), _A],
}

# curve12 (sphere1 meets sphere2): off the torus, two fresh vertices per arc
_ARC12 = {
    ("a", "b"): [_A, "c12_0", "c12_1", _B],
    ("b", "c"): [_B, "c12_2", "c12_3", _C],
    ("c", "d"): [_C, "c12_4", "c12_5", _D],
    ("d", "a"): [_D, "c12_6", "c12_7", _A],
}

# the double-point curves, each tagged by the two pieces it joins
SURFACE_CURVES = ("12", "13", "23")

# each piece, the two curves on it, and the name of the stratum its four
# triple points form when the built-in scene stratifies those two curves
SURFACE_PIECES = (
    ("sphere1", ("12", "13"), "triple-s1"),
    ("sphere2", ("12", "23"), "triple-s2"),
    ("torus", ("13", "23"), "triple-t"),
)


def _path_edges(path: list) -> list[tuple]:
    return [(path[k], path[k + 1]) for k in range(len(path) - 1)]


def _cycle(*legs) -> list:
    """Concatenate arcs into a closed vertex cycle.

    Each leg is (arc dict, key, reverse flag); consecutive legs share their
    junction vertex, which is dropped to avoid duplication.
    """
    out: list = []
    for arcs, key, reverse in legs:
        path = list(arcs[key])
        if reverse:
            path.reverse()
        if out:
            assert out[-1] == path[0], "arcs do not join"
            out.extend(path[1:])
        else:
            out.extend(path)
    assert out[0] == out[-1], "cycle does not close"
    return out[:-1]


def _cone(apex: str, cycle: list) -> list[tuple]:
    return [(apex, cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))]


def curve_edges(tag: str) -> list[tuple]:
    """Edge list of one double-point curve of the surface model ("12", "13", "23")."""
    arcs = {"12": _ARC12, "13": _ARC13, "23": _ARC23}[tag]
    edges = []
    for path in arcs.values():
        edges.extend(_path_edges(path))
    return edges


class SurfaceModel(Record):
    """The assembled surface: total complex plus the named pieces."""

    total: SimplicialComplex
    sphere1: Subcomplex
    sphere2: Subcomplex
    torus: Subcomplex
    curve12: Subcomplex
    curve13: Subcomplex
    curve23: Subcomplex
    triple_points: Subcomplex

    def pieces(self) -> list[tuple[str, Subcomplex]]:
        return [("X1", self.sphere1), ("X2", self.sphere2), ("X3", self.torus)]


@lru_cache(maxsize=1)
def surface_model() -> SurfaceModel:
    grid_verts, torus_tris = _grid(_N, _N)
    a13, a23, a12 = _ARC13, _ARC23, _ARC12

    # sphere1: six faces bounded by curve12 and curve13 arcs
    s1_cycles = [
        _cycle((a13, ("a", "d"), False), (a12, ("d", "a"), False)),
        _cycle((a12, ("a", "b"), False), (a13, ("c", "b"), True),
               (a12, ("c", "d"), False), (a13, ("a", "d"), True)),
        _cycle((a12, ("b", "c"), False), (a13, ("c", "b"), False)),
        _cycle((a12, ("c", "d"), False), (a13, ("d", "c"), False)),
        _cycle((a12, ("a", "b"), False), (a13, ("b", "a"), False)),
        _cycle((a12, ("d", "a"), True), (a13, ("d", "c"), False),
               (a12, ("b", "c"), True), (a13, ("b", "a"), False)),
    ]
    # sphere2: six faces bounded by curve12 and curve23 arcs
    s2_cycles = [
        _cycle((a23, ("a", "b"), False), (a12, ("a", "b"), True)),
        _cycle((a23, ("a", "b"), False), (a12, ("b", "c"), False),
               (a23, ("c", "d"), False), (a12, ("d", "a"), False)),
        _cycle((a23, ("c", "d"), False), (a12, ("c", "d"), True)),
        _cycle((a23, ("b", "c"), False), (a12, ("b", "c"), True)),
        _cycle((a23, ("d", "a"), False), (a12, ("d", "a"), True)),
        _cycle((a12, ("a", "b"), False), (a23, ("b", "c"), False),
               (a12, ("c", "d"), False), (a23, ("d", "a"), False)),
    ]
    s1_tris = []
    for k, cyc in enumerate(s1_cycles):
        s1_tris.extend(_cone(f"x1_f{k}", cyc))
    s2_tris = []
    for k, cyc in enumerate(s2_cycles):
        s2_tris.extend(_cone(f"x2_f{k}", cyc))

    extra_verts = tuple(f"c12_{k}" for k in range(8))
    apex_verts = tuple(f"x1_f{k}" for k in range(6)) + tuple(f"x2_f{k}" for k in range(6))
    verts = grid_verts + extra_verts + apex_verts

    total = SimplicialComplex.from_maximal(verts, torus_tris + s1_tris + s2_tris)

    curves = {f"curve{tag}": total.subcomplex(maximal=curve_edges(tag))
              for tag in SURFACE_CURVES}
    torus_sc = total.subcomplex(maximal=torus_tris)
    sphere1 = total.subcomplex(maximal=s1_tris)
    sphere2 = total.subcomplex(maximal=s2_tris)
    triple = total.subcomplex(maximal=[(_A,), (_B,), (_C,), (_D,)])

    return SurfaceModel(
        total=total,
        sphere1=sphere1,
        sphere2=sphere2,
        torus=torus_sc,
        triple_points=triple,
        **curves,
    )
