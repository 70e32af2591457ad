"""Simplicial complexes: validation, homology, pairs, unions, products."""

from __future__ import annotations

import time
from itertools import combinations

import gf2_oracle
import pytest
import simplicial_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from virtbetti import models
from virtbetti.errors import NotFaceClosed, TooManySimplices, UnknownVertex
from virtbetti.gf2 import rank
from virtbetti.simplicial import (
    MAX_SIMPLICES,
    BettiVector,
    PairSpace,
    SimplicialComplex,
    Subcomplex,
    disjoint_union,
    maximal_simplices,
    _closure,
    product_complex,
)
from virtbetti.spectral import Arrangement


def brute_force_betti(k: SimplicialComplex) -> list[int]:
    """Homology dims by enumerating every chain subspace; <= 12 simplices."""
    assert k.n_simplices() <= 12
    dims = []
    for d in range(k.dim + 1):
        chains_d = k.simplices_of_dim(d)
        boundary = k.boundary_matrix(d)
        cycles = [v for v in range(1 << len(chains_d))
                  if gf2_oracle.matvec(boundary.row_bits, v) == 0]
        nxt = k.boundary_matrix(d + 1)
        boundaries = {0}
        for j in range(len(k.simplices_of_dim(d + 1))):
            img = gf2_oracle.matvec(nxt.row_bits, 1 << j)
            boundaries |= {img ^ w for w in boundaries}
        dims.append((len(cycles).bit_length() - 1) - (len(boundaries).bit_length() - 1))
    return dims


def test_validate_full_triangle():
    k = SimplicialComplex.from_maximal(("a", "b", "c"), [("a", "b", "c")])
    k.validate()
    assert k.n_simplices() == 7


def test_validate_rejects_missing_faces():
    with pytest.raises(NotFaceClosed) as err:
        SimplicialComplex(("a", "b"), [("a", "b")])
    assert "face" in str(err.value)


def test_validate_rejects_a_vertex_without_its_singleton():
    with pytest.raises(NotFaceClosed) as err:
        SimplicialComplex(("a", "b"), [("a",)])
    assert err.value.code == "not-face-closed"
    assert err.value.message == "vertex 'b' has no singleton simplex"
    assert err.value.context == {"vertex": "'b'"}


def test_validate_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        SimplicialComplex(("a",), [("a", "z")])


def test_empty_complex_is_valid():
    k = SimplicialComplex.empty()
    k.validate()
    assert k.betti_mod2() == BettiVector(())
    assert k.poincare_polynomial().is_zero()


def test_size_guardrail():
    with pytest.raises(TooManySimplices):
        SimplicialComplex.from_maximal(tuple(range(25)), [tuple(range(25))])


def test_size_guardrail_fires_before_enumerating():
    # 40 vertices: its 2^40 - 1 faces exceed 4 * MAX_SIMPLICES
    start = time.perf_counter()
    with pytest.raises(TooManySimplices):
        SimplicialComplex.from_maximal(tuple(range(40)), [tuple(range(40))])
    assert time.perf_counter() - start < 1.0


def test_closure_bound_refuses_many_small_simplices_quickly():
    # disjoint 4-simplices of 31 faces each: 12,904 of them have 400,024 faces
    count = 4 * MAX_SIMPLICES // 31 + 1
    maximal = [range(5 * i, 5 * i + 5) for i in range(count)]
    start = time.perf_counter()
    with pytest.raises(TooManySimplices) as info:
        SimplicialComplex.from_maximal(range(5 * count), maximal)
    assert time.perf_counter() - start < 1.0
    assert info.value.to_dict() == {"code": "too-many-simplices",
                                    "message": "face closure exceeds the supported size",
                                    "context": {"limit": MAX_SIMPLICES}}


def test_closure_bound_counts_faces_not_facets():
    # every 7-subset of 19 vertices: 94,183 simplices, within the cap, though
    # the 50,388 maximal ones list 352,716 facets of 27,132 distinct 5-simplices
    k = SimplicialComplex.from_maximal(range(19), combinations(range(19), 7))
    assert k.simplex_counts() == [19, 171, 969, 3876, 11628, 27132, 50388]


def test_the_cap_size_torus_still_builds():
    k = models.torus_grid(129, 129)
    assert k.n_simplices() == 99_846
    assert k.simplex_counts() == [16641, 49923, 33282]


def test_betti_circle():
    assert tuple(models.circle(3).betti_mod2()) == (1, 1)
    assert tuple(models.circle(7).betti_mod2()) == (1, 1)


def test_betti_torus_against_rank_oracle():
    from test_gf2 import brute_force_rank

    torus = models.torus_minimal()
    assert tuple(torus.betti_mod2()) == (1, 2, 1)
    # independent route: brute-force row-span ranks of the boundary matrices
    counts = torus.simplex_counts()
    r1 = brute_force_rank(torus.boundary_matrix(1))
    r2 = brute_force_rank(torus.boundary_matrix(2))
    assert (counts[0] - r1, counts[1] - r1 - r2, counts[2] - r2) == (1, 2, 1)
    assert (r1, r2) == (rank(torus.boundary_matrix(1)), rank(torus.boundary_matrix(2)))


def test_betti_spheres():
    assert tuple(models.sphere(0).betti_mod2()) == (2,)
    assert tuple(models.sphere(2).betti_mod2()) == (1, 0, 1)
    assert tuple(models.sphere(3).betti_mod2()) == (1, 0, 0, 1)


def test_betti_projective_plane_mod2():
    assert tuple(models.projective_plane().betti_mod2()) == (1, 1, 1)


def test_betti_surface_union(surface):
    assert tuple(surface.total.betti_mod2()) == (1, 1, 8)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: models.points(2),
        lambda: models.circle(3),
        lambda: SimplicialComplex.from_maximal(("a", "b", "c"), [("a", "b", "c")]),
        lambda: SimplicialComplex.from_maximal(
            ("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        ),
    ],
)
def test_homology_matches_brute_force(maker):
    k = maker()
    assert list(k.betti_mod2()) + [0] * (k.dim + 1 - len(k.betti_mod2())) == brute_force_betti(k)


def test_field_duality_homology_equals_cohomology():
    for k in (models.circle(4), models.torus_minimal(), models.projective_plane()):
        for d in range(k.dim + 1):
            m = k.boundary_matrix(d)
            assert rank(m) == rank(m.transpose())


@pytest.mark.parametrize(
    "maker,expected",
    [
        (models.point, 1),
        (lambda: models.circle(3), 0),
        (lambda: models.sphere(2), 2),
        (models.torus_minimal, 0),
        (models.projective_plane, 1),
    ],
)
def test_euler_consistency(maker, expected):
    k = maker()
    assert k.euler_characteristic() == expected
    assert k.betti_mod2().euler() == expected


def test_boundary_matrices_are_deterministic():
    a = models.torus_minimal().boundary_matrix(1)
    b = models.torus_minimal().boundary_matrix(1)
    assert a == b


@st.composite
def complexes_with_subcomplexes(draw):
    """A complex on at most 7 vertices in a random vertex order, with
    simplices of at most 4 vertices and maybe isolated vertices, and a
    subcomplex generated by a few of its simplices.  Returns the vertex and
    generator lists with the complex and the subcomplex they build."""
    verts = draw(st.permutations([f"v{i}" for i in range(7)]))
    maximal = draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True), max_size=8))
    isolated = draw(st.lists(st.sampled_from(verts), max_size=2))
    used = [v for v in verts if v in isolated or any(v in s for s in maximal)]
    k = SimplicialComplex.from_maximal(used, maximal)
    simplices = sorted(k.simplices, key=k.sort_key)
    boundary = draw(st.lists(st.sampled_from(simplices), max_size=4)) if simplices else []
    # reversed generators: the subcomplex must not depend on their vertex order
    boundary = [s[::-1] for s in boundary]
    return used, maximal, k, boundary, k.subcomplex(maximal=boundary)


def assert_matches_row_wise_oracle(k, boundary):
    assert k.betti_mod2() == simplicial_oracle.betti_mod2(k)
    for d in range(-1, k.dim + 3):
        assert k.boundary_matrix(d) == simplicial_oracle.boundary_matrix(k, d)
    pair = PairSpace(k, boundary)
    assert pair.betti_compact_supports() == simplicial_oracle.betti_compact_supports(pair)
    for q in range(-2, k.dim + 2):
        assert pair.relative_coboundary_matrix(q) == simplicial_oracle.boundary_matrix(
            k, q + 1, boundary.simplices).transpose()


@given(complexes_with_subcomplexes())
@settings(max_examples=200, deadline=None)
def test_homology_matches_row_wise_oracle(case):
    used, maximal, k, boundary, sub = case
    assert k == simplicial_oracle.from_maximal(used, maximal)
    assert sub == simplicial_oracle.subcomplex(k, maximal=boundary)
    assert maximal_simplices(k) == simplicial_oracle.maximal_simplices(k)
    assert maximal_simplices(k, sub.simplices) == simplicial_oracle.maximal_simplices(
        k, sub.simplices)
    assert_matches_row_wise_oracle(k, sub)


@st.composite
def high_dimensional_pairs(draw):
    """A complex of dimension up to 5 on at most 8 vertices, built from
    simplices of up to 6 vertices, boundaries of simplices of up to 7 and
    cones over what is built so far, with a subcomplex generated by a few
    of its simplices.  Cleared rows reach every degree of such a complex."""
    verts = draw(st.permutations([f"v{i}" for i in range(8)]))
    maximal: list[tuple] = []
    for kind in draw(st.lists(st.sampled_from(["simplex", "boundary", "cone"]),
                              min_size=1, max_size=4)):
        if kind == "cone":
            apex = draw(st.sampled_from(verts))
            maximal += [(apex,) + tuple(v for v in s if v != apex) for s in maximal
                        if len(s) < 6 or apex in s]
            continue
        size = 6 if kind == "simplex" else 7
        s = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=size, unique=True))
        if kind == "boundary" and len(s) > 1:
            maximal += list(combinations(s, len(s) - 1))
        else:
            maximal.append(tuple(s))
    k = SimplicialComplex.from_maximal(sorted({v for s in maximal for v in s}), maximal)
    simplices = sorted(k.simplices, key=k.sort_key)
    boundary = draw(st.lists(st.sampled_from(simplices), max_size=3)) if simplices else []
    return k, k.subcomplex(maximal=boundary)


@given(high_dimensional_pairs())
@settings(max_examples=150, deadline=None)
def test_cleared_homology_matches_uncleared_oracle_up_to_dimension_5(case):
    k, boundary = case
    assert_matches_row_wise_oracle(k, boundary)


# names of three types: the engine never compares names, only positions
NAMES = [f"v{i}" for i in range(4)] + [7, 11, ("w", 0)]


@st.composite
def named_complexes(draw, size=7, width=4):
    """Vertex names in a random order and a random number of them, maximal
    simplices of at most ``width`` vertices (repeats allowed), and the
    generators of a subcomplex."""
    verts = draw(st.permutations(NAMES[:size]))[:draw(st.integers(0, size))]
    if not verts:
        return verts, [], []
    maximal = draw(st.lists(st.lists(st.sampled_from(verts), min_size=1, max_size=width),
                            max_size=6))
    boundary = []  # faces of generators, in a random vertex order
    for face in draw(st.lists(st.sampled_from(maximal + [[v] for v in verts]), max_size=3)):
        face = draw(st.permutations(face))
        boundary.append(face[:draw(st.integers(1, len(face)))])
    return verts, maximal, boundary


def assert_matches_name_oracle(k, ref, boundary):
    """Cells inside, names at the edges: every view, matrix and Betti number
    of ``k`` equals what the name-based oracle ``ref`` gives."""
    assert k.vertices == ref.vertices and k.n_simplices() == len(ref.simplices)
    assert k.simplices == ref.simplices
    for d in range(-1, k.dim + 2):
        assert k.simplices_of_dim(d) == ref.simplices_of_dim(d)
    assert maximal_simplices(k) == simplicial_oracle.maximal_simplices(ref)
    sub, ref_sub = k.subcomplex(maximal=boundary), ref.subcomplex(maximal=boundary)
    assert sub.simplices == ref_sub
    assert maximal_simplices(k, sub.simplices) == simplicial_oracle.maximal_simplices(ref, ref_sub)
    part = sub.as_complex()
    assert part.vertices == tuple(v for v in ref.vertices if (v,) in ref_sub)
    assert part.simplices == ref_sub
    for d in range(-1, k.dim + 3):
        assert k.boundary_matrix(d) == simplicial_oracle.boundary_matrix(ref, d)
    pair = PairSpace(k, sub)
    for q in range(-2, k.dim + 2):
        assert pair.relative_coboundary_matrix(q) == simplicial_oracle.boundary_matrix(
            ref, q + 1, ref_sub).transpose()
    assert k.betti_mod2() == simplicial_oracle.betti_mod2(ref)
    assert pair.betti_compact_supports() == simplicial_oracle.betti_mod2(ref, ref_sub)


@given(named_complexes())
@settings(max_examples=200, deadline=None)
def test_cells_match_the_name_oracle(case):
    verts, maximal, boundary = case
    k = SimplicialComplex.from_maximal(verts, maximal)
    ref = simplicial_oracle.NameComplex.from_maximal(verts, maximal)
    assert_matches_name_oracle(k, ref, boundary)
    explicit = [s[::-1] for s in ref.simplices]
    assert_matches_name_oracle(SimplicialComplex(verts, explicit),
                               simplicial_oracle.NameComplex(verts, explicit), boundary)


@st.composite
def maximal_cells(draw):
    """Cells of 1-6 of the positions 0..8 in a random order, some of them
    repeated and some faces of others."""
    cell = st.sets(st.integers(0, 8), min_size=1, max_size=6).map(lambda s: tuple(sorted(s)))
    cells = draw(st.lists(cell, max_size=8))
    for c in draw(st.lists(st.sampled_from(cells), max_size=4)) if cells else ():
        cells.append(c if draw(st.booleans()) else tuple(sorted(draw(
            st.sets(st.sampled_from(c), min_size=1, max_size=len(c))))))
    return draw(st.permutations(cells))


@given(maximal_cells())
@settings(max_examples=300, deadline=None)
def test_level_wise_closure_matches_the_set_oracle(cells):
    ref = simplicial_oracle.cell_closure(cells)
    by_dim = {d: {f for f in ref if len(f) == d + 1} for d in range(max(map(len, ref), default=0))}
    assert _closure(iter(cells)) == by_dim
    k = SimplicialComplex.from_maximal(range(9), cells)
    by_dim.setdefault(0, set()).update((v,) for v in range(9))
    assert list(k._by_dim.items()) == [(d, sorted(by_dim[d])) for d in sorted(by_dim)]
    assert k.cells == ref | {(v,) for v in range(9)}
    assert k.subcomplex(maximal=cells).cells == ref
    if cells:
        big = SimplicialComplex.from_maximal(range(9), [range(9)])
        assert big.subcomplex(maximal=cells).cells == ref


@given(named_complexes(size=4, width=3), named_complexes(size=4, width=3), st.data())
@settings(max_examples=60, deadline=None)
def test_products_match_the_name_oracle(case_a, case_b, data):
    k = product_complex(SimplicialComplex.from_maximal(*case_a[:2]),
                        SimplicialComplex.from_maximal(*case_b[:2]))
    ref = simplicial_oracle.product(simplicial_oracle.NameComplex.from_maximal(*case_a[:2]),
                                    simplicial_oracle.NameComplex.from_maximal(*case_b[:2]))
    simplices = sorted(ref.simplices, key=ref.sort_key)
    boundary = data.draw(st.lists(st.sampled_from(simplices), max_size=3)) if simplices else []
    assert_matches_name_oracle(k, ref, boundary)


@given(complexes_with_subcomplexes(), named_complexes(size=4, width=3),
       named_complexes(size=4, width=3), st.data())
@settings(max_examples=100, deadline=None)
def test_routes_that_skip_the_face_walk_pass_the_full_check(case, case_a, case_b, data):
    # each route below builds a face-closed family by construction and skips
    # the walk; the full check must accept everything it builds
    k, sub = case[2], case[4]
    a, b = (SimplicialComplex.from_maximal(*c[:2]) for c in (case_a, case_b))
    tops = maximal_simplices(k)
    owners = [data.draw(st.sets(st.integers(0, 2), min_size=1)) for _ in tops]
    pieces = [k.subcomplex(maximal=[t for t, o in zip(tops, owners) if i in o])
              for i in range(3)] + [sub, k.full_subcomplex()]
    arr = Arrangement(k, tuple((f"X{i}", piece) for i, piece in enumerate(pieces)))
    complexes = [k, a, b, product_complex(a, b), disjoint_union(k, a), disjoint_union(a, b)]
    complexes += [k.standalone(meet) for meet in arr.nerve.values()]
    subs = pieces + [p.union(q) for p in pieces for q in pieces]
    subs += [p.intersection(q) for p in pieces for q in pieces]
    for piece in subs:
        assert Subcomplex(piece.parent, piece.cells) == piece
        complexes.append(piece.as_complex())
    for c in complexes:
        c.validate()


@pytest.mark.parametrize("k, boundary, expected", [
    (SimplicialComplex.empty(), [], ()),
    (models.points(4), [], (4,)),
    (models.points(4), [("p2",)], (3,)),
    (models.points(4), [("p0",), ("p1",), ("p2",), ("p3",)], ()),
    (models.sphere(5), None, ()),
    (models.sphere(5), [("v3",)], (0, 0, 0, 0, 0, 1)),
    (models.torus_minimal(), None, ()),
    (models.torus_minimal(), [("v0",)], (0, 2, 1)),
], ids=["empty", "points", "points-minus-one", "points-minus-all", "sphere-minus-all",
        "sphere-minus-vertex", "torus-minus-all", "torus-minus-vertex"])
def test_cleared_homology_edge_cases(k, boundary, expected):
    sub = k.full_subcomplex() if boundary is None else k.subcomplex(maximal=boundary)
    pair = PairSpace(k, sub)
    assert tuple(pair.betti_compact_supports()) == expected
    assert_matches_row_wise_oracle(k, sub)


def test_homology_matches_row_wise_oracle_on_scene_pairs(scene):
    for k in scene.complexes.values():
        assert_matches_row_wise_oracle(k, k.subcomplex())
    for pair in scene.pairs.values():
        assert_matches_row_wise_oracle(pair.total, pair.boundary)


# -- pairs -------------------------------------------------------------------


def line_pair():
    circle = models.circle(3)
    return PairSpace(circle, circle.subcomplex(maximal=[("v0",)]))


def test_pair_circle_minus_point():
    assert tuple(line_pair().betti_compact_supports()) == (0, 1)
    assert line_pair().euler_compact_supports() == -1


def test_pair_empty_boundary_reduces_to_betti():
    k = models.torus_minimal()
    pair = PairSpace(k, k.subcomplex())
    assert pair.betti_compact_supports() == k.betti_mod2()


def test_pair_full_boundary_is_trivial():
    k = models.circle(4)
    pair = PairSpace(k, k.full_subcomplex())
    assert tuple(pair.betti_compact_supports()) == ()
    assert pair.euler_compact_supports() == 0


def test_pair_euler_matches_homological_value(scene):
    for name in ("line", "plane", "space-3", "sphere-pair-1", "circle-minus-two"):
        pair = scene.pair(name)
        homological = pair.betti_compact_supports().euler()
        assert pair.euler_compact_supports() == homological


def test_pair_long_exact_sequence_euler(scene):
    # chi_c(open part) + chi(boundary) = chi(total)
    for name in ("line", "plane", "sphere-pair-2", "surface-sphere1-smooth"):
        pair = scene.pair(name)
        total = pair.total.euler_characteristic()
        boundary = pair.boundary.as_complex().euler_characteristic()
        assert pair.euler_compact_supports() + boundary == total


def test_pair_sphere_minus_sphere_compact_supports(scene):
    # complement of S^1 in S^2 is two open disks: H^2_c has dimension 2
    pair = scene.pair("sphere-pair-1")
    assert tuple(pair.betti_compact_supports()) == (0, 0, 2)


# -- disjoint unions and products ---------------------------------------------


def test_disjoint_union_adds_betti():
    two = disjoint_union(models.circle(3), models.circle(3))
    assert tuple(two.betti_mod2()) == (2, 2)
    assert two.euler_characteristic() == 0


def test_disjoint_union_with_empty_is_identity():
    k = models.circle(3)
    assert disjoint_union(k, SimplicialComplex.empty()) is k
    assert disjoint_union(SimplicialComplex.empty(), k) is k


def test_product_with_point_is_unit():
    k = product_complex(models.circle(3), models.point())
    assert tuple(k.betti_mod2()) == (1, 1)


def test_product_of_circles_is_a_torus():
    k = product_complex(models.circle(3), models.circle(3))
    assert tuple(k.betti_mod2()) == (1, 2, 1)
    assert k.euler_characteristic() == 0


def test_product_with_empty_is_empty():
    k = product_complex(SimplicialComplex.empty(), models.circle(3))
    assert k.n_simplices() == 0


@pytest.mark.parametrize(
    "a,b",
    [
        (lambda: models.points(2), lambda: models.circle(3)),
        (lambda: models.circle(3), lambda: models.circle(4)),
        (lambda: models.sphere(2), lambda: models.points(3)),
        (lambda: models.circle(3), lambda: models.sphere(2)),
    ],
)
def test_kunneth_convolution(a, b):
    ka, kb = a(), b()
    product = product_complex(ka, kb)
    expected = ka.poincare_polynomial() * kb.poincare_polynomial()
    assert product.poincare_polynomial() == expected


def test_subcomplex_must_be_face_closed():
    k = models.circle(3)
    with pytest.raises(NotFaceClosed) as err:
        from virtbetti.simplicial import Subcomplex

        Subcomplex(k, frozenset({k.sort_key(("v0", "v1"))}))
    assert err.value.message == "simplex ('v0', 'v1') lacks face ('v0',)"


def test_surface_piece_homology(surface):
    assert tuple(surface.sphere1.as_complex().betti_mod2()) == (1, 0, 1)
    assert tuple(surface.sphere2.as_complex().betti_mod2()) == (1, 0, 1)
    assert tuple(surface.torus.as_complex().betti_mod2()) == (1, 2, 1)
    for curve in (surface.curve12, surface.curve13, surface.curve23):
        assert tuple(curve.as_complex().betti_mod2()) == (1, 1)
    assert len(surface.triple_points.simplices) == 4


def test_surface_intersections_are_exactly_the_curves(surface):
    assert surface.sphere1.intersection(surface.sphere2).simplices == surface.curve12.simplices
    assert surface.sphere1.intersection(surface.torus).simplices == surface.curve13.simplices
    assert surface.sphere2.intersection(surface.torus).simplices == surface.curve23.simplices
    triple = (
        surface.sphere1.intersection(surface.sphere2).intersection(surface.torus)
    )
    assert triple.simplices == surface.triple_points.simplices


def test_surface_cell_counts(surface):
    # 84 vertices, 324 edges, 248 triangles; Euler characteristic 8
    assert surface.total.simplex_counts() == [84, 324, 248]
    assert surface.total.euler_characteristic() == 8


def _is_boundary(k, cycle_edges):
    """Is the given 1-cycle a mod-2 boundary in k?"""
    from virtbetti.gf2 import GF2Matrix, rank

    edges = k.simplices_of_dim(1)
    pos = {e: i for i, e in enumerate(edges)}
    z = 0
    for e in cycle_edges:
        t = tuple(sorted(e, key=k.vertex_index))
        z |= 1 << pos[t]
    boundary = k.boundary_matrix(2)
    cols = list(boundary.transpose().row_bits)  # columns of d2 as edge vectors
    base = rank(GF2Matrix(len(cols), len(edges), tuple(cols)))
    augmented = rank(GF2Matrix(len(cols) + 1, len(edges), tuple(cols) + (z,)))
    return base == augmented


def test_surface_first_homology_generated_by_core_parallel_circle(surface):
    # the torus circle parallel to the core survives in the union ...
    k = surface.total
    core_parallel = [(f"t5_{j}", f"t5_{(j + 1) % 8}") for j in range(8)]
    assert not _is_boundary(k, core_parallel)
    # ... while the meridian bounds (it is the core of the leftover annulus)
    meridian = [(f"t{i}_0", f"t{(i + 1) % 8}_0") for i in range(8)]
    assert _is_boundary(k, meridian)
    # sanity: on the torus alone both classes are nonzero
    torus = surface.torus.as_complex()
    assert not _is_boundary(torus, core_parallel)
    assert not _is_boundary(torus, meridian)
