"""Mayer-Vietoris spectral sequences: double complex, pages, convergence."""

from __future__ import annotations

import hashlib
import random
import time
import tracemalloc

import mv_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtbetti import models
from virtbetti.cover import Arrangement
from virtbetti.errors import ConvergenceMismatch, NotACover, TooManySimplices
from virtbetti.polynomial import IntPolynomial
from virtbetti.simplicial import (
    MAX_SIMPLICES,
    BettiVector,
    SimplicialComplex,
    maximal_simplices,
)
from virtbetti.spectral import MVSpectralSequence, SpectralPage, row_alternating_sums
from virtbetti.triangle import WeightArray

E1 = {(0, 0): 3, (1, 0): 3, (2, 0): 4, (0, 1): 2, (1, 1): 3, (0, 2): 3}
E2 = {(0, 0): 1, (1, 0): 0, (2, 0): 3, (0, 1): 2, (1, 1): 3, (0, 2): 3}
E3 = {(0, 0): 1, (1, 0): 0, (2, 0): 2, (0, 1): 1, (1, 1): 3, (0, 2): 3}


def wedge_of_two_circles():
    verts = ("w", "a0", "a1", "b0", "b1")
    edges = [("w", "a0"), ("a0", "a1"), ("a1", "w"),
             ("w", "b0"), ("b0", "b1"), ("b1", "w")]
    total = SimplicialComplex.from_maximal(verts, edges)
    c1 = total.subcomplex(maximal=edges[:3])
    c2 = total.subcomplex(maximal=edges[3:])
    return Arrangement(total, (("C1", c1), ("C2", c2)))


def test_not_a_cover_is_rejected():
    circle, twin = models.circle(4), models.circle(4)  # equal, but another complex
    for pieces, message in [
        ((("half", circle.subcomplex(maximal=[("v0", "v1")])),), "do not cover"),
        ((), "at least one piece"),
        ((("X", twin.full_subcomplex()),), "piece 'X' is not a subcomplex"),
    ]:
        with pytest.raises(NotACover, match=message):
            Arrangement(circle, pieces)


def test_pages_below_one_are_refused():
    ss = MVSpectralSequence(wedge_of_two_circles())
    with pytest.raises(ValueError, match="page index must be >= 1"):
        ss.pages(0)


def test_single_piece_double_complex_is_the_cochain_complex():
    circle = models.circle(3)
    arr = Arrangement(circle, (("X", circle.full_subcomplex()),))
    ss = MVSpectralSequence(arr)
    assert ss.cpq_dim(0, 0) == 3
    assert ss.cpq_dim(0, 1) == 3
    assert ss.cpq_dim(1, 0) == 0
    assert ss.converged_betti() == circle.betti_mod2()


def test_two_circles_meeting_in_a_point():
    arr = wedge_of_two_circles()
    ss = MVSpectralSequence(arr)
    assert ss.cpq_dim(1, 0) == 1  # one intersection point
    assert tuple(ss.converged_betti()) == (1, 2)


def test_surface_column_dimensions(surface_ss):
    # three circles' worth of vertices and edges, four triple points
    ss = surface_ss
    assert ss.cpq_dim(2, 0) == 4
    assert ss.cpq_dim(1, 0) == 12 + 16 + 20
    assert ss.cpq_dim(1, 1) == 12 + 16 + 20
    assert ss.cpq_dim(1, 2) == 0


def test_differentials_square_to_zero(surface_ss):
    assert mv_oracle.differentials_square_to_zero(mv_oracle.double_complex(surface_ss.arrangement))


def test_differentials_square_to_zero_small_covers():
    for arr in (wedge_of_two_circles(),):
        assert mv_oracle.differentials_square_to_zero(mv_oracle.double_complex(arr))


def test_sequence_keeps_no_basis_or_columns(scene):
    # the basis and D are built, paired and dropped in the constructor
    ss = MVSpectralSequence(scene.arrangement("surface-443"))
    assert set(vars(ss)) == {"arrangement", "_m", "_page_cache", "_pair_counts", "_sizes"}


def test_surface_pages_match_expected_tables(surface_ss):
    for r, table in ((1, E1), (2, E2), (3, E3)):
        page = surface_ss.page(r)
        assert {pq: page.dim(*pq) for pq in table} == table
        extra = set(page.dims) - set(table)
        assert not extra


def test_surface_d2_has_rank_one(surface_ss):
    assert surface_ss.d_rank(2, 0, 1) == 1
    assert surface_ss.d_rank(2, 0, 2) == 0
    assert surface_ss.d_rank(1, 0, 0) == 2
    assert surface_ss.d_rank(1, 1, 0) == 1


def test_surface_stabilizes_at_three(surface_ss):
    cert = surface_ss.stabilization_certificate()
    assert cert.stable_from == 3
    assert surface_ss.page(3).dims == surface_ss.page(4).dims
    assert surface_ss.infinity_index == 3


def test_surface_converged_betti(surface_ss):
    assert tuple(surface_ss.converged_betti()) == (1, 1, 8)


def test_surface_row_alternating_sums(surface_ss):
    assert row_alternating_sums(surface_ss.page(1)) == [4, -1, 3]
    assert row_alternating_sums(surface_ss.page(2)) == [4, -1, 3]
    assert row_alternating_sums(surface_ss.page(3)) == [3, -2, 3]


def test_surface_filtration_profile(surface_ss):
    prof = surface_ss.filtration_profile()
    values = {
        (2, 2): 3, (2, 1): 3, (2, 0): 2,
        (1, 1): 1, (1, 0): 0, (0, 0): 1,
    }
    for (i, j), want in values.items():
        assert prof.value(i, j) == want
    assert prof.diagonal_sums() == [1, 1, 8]
    # the weight search's type: nonzero entries in (i, j) order, and the row sums
    assert isinstance(prof, WeightArray) and prof.n == 2
    assert list(prof.w.items()) == [((0, 0), 1), ((1, 1), 1), ((2, 0), 2), ((2, 1), 3), ((2, 2), 3)]
    assert prof.row_alternating_sums() == [3, -2, 3]


def test_page_monotonicity_and_euler_invariance(surface_ss):
    pages = surface_ss.pages(4)
    for earlier, later in zip(pages, pages[1:]):
        for pq, d in later.dims.items():
            assert d <= earlier.dim(*pq)
    assert len({p.euler() for p in pages}) == 1


def test_tangent_circles_cover(scene):
    arr = scene.arrangement("tangent-circles")
    ss = MVSpectralSequence(arr)
    page = ss.page(1)
    assert page.dim(0, 0) == 2 and page.dim(0, 1) == 2 and page.dim(1, 0) == 2
    assert tuple(ss.converged_betti()) == (1, 3)


def test_two_disjoint_circles(scene):
    arr = scene.arrangement("two-circles")
    ss = MVSpectralSequence(arr)
    assert tuple(ss.converged_betti()) == (2, 2)
    prof = ss.filtration_profile()
    # no intersections: d_1 = 0 and the filtration sits on the diagonal
    assert prof.value(0, 0) == 2 and prof.value(1, 1) == 2 and prof.value(1, 0) == 0
    cert = ss.stabilization_certificate()
    assert cert.stable_from == 1


def test_single_compact_piece_profile_is_diagonal():
    torus = models.torus_minimal()
    arr = Arrangement(torus, (("X", torus.full_subcomplex()),))
    prof = MVSpectralSequence(arr).filtration_profile()
    b = torus.betti_mod2()
    for i in range(len(b)):
        assert prof.value(i, i) == b[i]
        for j in range(i):
            assert prof.value(i, j) == 0


def test_compute_pages_function(scene):
    pages = MVSpectralSequence(scene.arrangement("two-circles")).pages(2)
    assert [p.r for p in pages] == [1, 2]


def test_beta_diagnostic_on_normal_crossing_covers(scene, surface_ss):
    # rows of E_1 and E_2 alternate-sum to the inclusion-exclusion values
    for name, ss in (("surface-443", surface_ss),
                     ("tangent-circles", MVSpectralSequence(scene.arrangement("tangent-circles"))),
                     ("two-circles", MVSpectralSequence(scene.arrangement("two-circles")))):
        beta = scene.arrangement(name).virtual_betti()
        want = [beta.coefficient(q) for q in range(ss.page(1).max_q() + 1)]
        assert row_alternating_sums(ss.page(1)) == want
        assert row_alternating_sums(ss.page(2)) == want


def test_virtual_betti_checks_each_meet_once(scene, monkeypatch):
    # a nerve meet is face-closed by construction (an intersection of checked
    # pieces), so neither its standalone complex nor the empty boundary of
    # its homology pair walks the faces again
    import virtbetti.simplicial as simplicial

    calls = []
    check = simplicial._check_face_closed
    monkeypatch.setattr(simplicial, "_check_face_closed",
                        lambda s, verts: calls.append(s) or check(s, verts))
    arr = scene.arrangement("surface-443")
    beta = arr.virtual_betti()
    assert arr.nerve and calls == []
    assert beta == mv_oracle.virtual_betti(arr)


# md5 of the basis of D, its cells named, and of the sorted pair counts, as
# they were when simplices were tuples of vertex names inside the engine
MV_SIGNATURES = {
    "surface-443": ("e7080f2715a50c343ea61e3499491451", "7077c753db2083742a9979e523bd7228"),
    "tangent-circles": ("868c78f2ae58b749a5e0701d8a566ab3", "0a57398decd8333f814a5de8dc9f56a5"),
    "two-circles": ("54ebe15705118f790040687ff98b39a0", "0ee67f267a52e672ab360bd6d5dc6a01"),
    "circle-alone": ("9ce44844cbf2fb2e29202ff5fc30bd61", "4adac7d560c0020fa4a7e3c333a58224"),
}


@pytest.mark.parametrize("name", sorted(MV_SIGNATURES))
def test_basis_order_and_pair_counts_are_unchanged(scene, name):
    arr = scene.arrangement(name)
    basis, _ = mv_oracle.engine_complex(arr)
    rows = [(n, [(p, subset, arr.total.named(s)) for p, subset, s in entries])
            for n, entries in sorted(basis.items())]
    pairs = sorted(MVSpectralSequence(arr)._pair_counts.items())
    assert (hashlib.md5(repr(rows).encode()).hexdigest(),
            hashlib.md5(repr(pairs).encode()).hexdigest()) == MV_SIGNATURES[name]


def test_four_piece_cover_of_a_circle():
    # circle covered by its four closed edges; exercises columns up to p = 3
    circle = models.circle(4)
    pieces = tuple(
        (f"e{i}", circle.subcomplex(maximal=[(f"v{i}", f"v{(i + 1) % 4}")]))
        for i in range(4)
    )
    arr = Arrangement(circle, pieces)
    ss = MVSpectralSequence(arr)
    assert mv_oracle.differentials_square_to_zero(mv_oracle.double_complex(arr))
    page1 = ss.page(1)
    assert page1.dim(0, 0) == 4  # four contractible arcs
    assert page1.dim(1, 0) == 4  # four single-point overlaps of adjacent arcs
    assert page1.dim(2, 0) == 0  # triple intersections are empty
    assert tuple(ss.converged_betti()) == (1, 1)
    prof = ss.filtration_profile()
    assert prof.value(1, 0) == 1 and prof.value(1, 1) == 0
    assert len({p.euler() for p in ss.pages(5)}) == 1


def test_three_piece_cover_with_one_empty_pairwise_intersection():
    # path of three edges: ends do not meet, middle meets both
    path = SimplicialComplex.from_maximal(
        ("v0", "v1", "v2", "v3"), [("v0", "v1"), ("v1", "v2"), ("v2", "v3")]
    )
    arr = Arrangement(path, tuple(
        (f"e{i}", path.subcomplex(maximal=[(f"v{i}", f"v{i + 1}")])) for i in range(3)
    ))
    ss = MVSpectralSequence(arr)
    assert ss.cpq_dim(1, 0) == 2  # only adjacent edges intersect
    assert tuple(ss.converged_betti()) == (1,)


def test_euler_invariance_across_fixture_covers(scene):
    for name in ("surface-443", "tangent-circles", "two-circles", "circle-alone"):
        ss = MVSpectralSequence(scene.arrangement(name))
        pages = ss.pages(ss.infinity_index + 1)
        eulers = {p.euler() for p in pages}
        assert len(eulers) == 1
        assert eulers.pop() == ss.arrangement.total.euler_characteristic()


def star_of_edges(k):
    """k edges on one vertex, each a piece: every set of two or more meets
    in the centre alone."""
    star = SimplicialComplex.from_maximal(
        ["c"] + [f"x{i}" for i in range(k)], [("c", f"x{i}") for i in range(k)])
    return Arrangement(star, tuple(
        (f"e{i}", star.subcomplex(maximal=[("c", f"x{i}")])) for i in range(k)))


def test_seventeen_edges_on_one_vertex_are_refused_by_the_cell_budget():
    # 2^17 - 18 = 131,054 one-cell meets pass the budget; no cap on the pieces
    arr = star_of_edges(17)
    start = time.perf_counter()
    with pytest.raises(TooManySimplices) as info:
        arr.nerve
    assert time.perf_counter() - start < 1.0
    assert info.value.code == "too-many-simplices"
    assert info.value.context == {"limit": MAX_SIMPLICES}


def test_sixteen_edge_circle_cover_has_a_32_entry_nerve():
    # sixteen arcs and the sixteen points where neighbours meet; no three meet
    circle = models.circle(16)
    pieces = tuple(
        (f"e{i}", circle.subcomplex(maximal=[(f"v{i}", f"v{(i + 1) % 16}")]))
        for i in range(16)
    )
    arr = Arrangement(circle, pieces)
    assert len(arr.nerve) == 32
    assert sorted(len(s) for s in arr.nerve) == [1] * 16 + [2] * 16
    ss = MVSpectralSequence(arr)
    assert ss.intersection_complex((0, 1)) == frozenset({("v1",)})
    assert ss.intersection_complex((0, 2)) == frozenset()
    assert ss.intersection_complex((15, 0)) == frozenset({("v0",)})
    assert tuple(ss.converged_betti()) == (1, 1)


def test_meets_past_the_cell_budget_are_refused():
    # copies of one 600-cell torus: 6 meet in 57 x 600 cells, 8 in 247 x 600,
    # which would pass the budget; 16 edges on one vertex meet in 65,519 points
    torus = models.torus_grid(10, 10)
    whole = torus.subcomplex(maximal=maximal_simplices(torus))
    assert len(Arrangement(torus, (("P", whole),) * 6).nerve) == 63
    start = time.perf_counter()
    with pytest.raises(TooManySimplices) as info:
        Arrangement(torus, (("P", whole),) * 8).nerve
    assert time.perf_counter() - start < 0.5
    assert info.value.code == "too-many-simplices"
    assert info.value.context == {"limit": MAX_SIMPLICES}
    assert len(star_of_edges(16).nerve) == 2**16 - 1


def test_the_cell_budget_admits_meets_of_exactly_its_size():
    # two copies of a 50,000-vertex cycle meet in 100,000 cells, the budget;
    # a third piece holding one of its vertices adds the cell that passes it
    cycle = models.circle(50_000)
    copies = (("A", cycle.full_subcomplex()), ("B", cycle.full_subcomplex()))
    assert len(Arrangement(cycle, copies).nerve) == 3
    with pytest.raises(TooManySimplices) as info:
        Arrangement(cycle, copies + (("C", cycle.subcomplex(maximal=[("v0",)])),)).nerve
    assert info.value.context == {"limit": MAX_SIMPLICES}


def test_virtual_betti_builds_one_complex_per_distinct_meet(monkeypatch):
    # the 16-edge star's 65,535 nerve entries hold 17 distinct meets: the
    # edges and the centre, which 65,519 entries share with signs adding to -15
    arr = star_of_edges(16)
    built = []
    standalone = SimplicialComplex.standalone
    monkeypatch.setattr(SimplicialComplex, "standalone",
                        lambda self, cells: built.append(cells) or standalone(self, cells))
    assert arr.virtual_betti() == IntPolynomial((1,))
    assert len(built) == 17


def test_pieces_that_never_meet_build_their_nerve_in_linear_time():
    # m disjoint edges, each a piece: no vertex lies in two, so no pair is tried
    def best_seconds(m):
        edges = SimplicialComplex.from_maximal(
            [f"v{i}" for i in range(2 * m)], [(f"v{2 * i}", f"v{2 * i + 1}") for i in range(m)])
        arr = Arrangement(edges, tuple(
            (f"e{i}", edges.subcomplex(maximal=[(f"v{2 * i}", f"v{2 * i + 1}")])) for i in range(m)))
        seconds = []
        for _ in range(5):
            start = time.perf_counter()
            nerve = Arrangement.nerve.func(arr)
            seconds.append(time.perf_counter() - start)
        assert list(nerve) == [(i,) for i in range(m)]
        return min(seconds)

    assert best_seconds(4000) < 3 * best_seconds(2000)


@st.composite
def covered_complexes(draw):
    """A complex on at most 8 vertices with simplices of at most 4 vertices,
    closed-covered by 1-5 pieces.  Each piece is generated by its own
    simplices and the complex is their union, so pieces meet in shared
    faces; about one cover in fifteen has a nonzero d_2."""
    verts = [f"v{i}" for i in range(8)]

    def simplex():
        k = draw(st.sampled_from((2, 3, 3, 4)))
        return draw(st.lists(st.sampled_from(verts), min_size=k, max_size=k, unique=True))

    generators = [
        [simplex() for _ in range(draw(st.sampled_from(range(2, 7))))]
        for _ in range(draw(st.sampled_from(range(1, 6))))
    ]
    maximal = [s for gens in generators for s in gens]
    used = [v for v in verts if any(v in s for s in maximal)]
    total = SimplicialComplex.from_maximal(used, maximal)
    return Arrangement(total, tuple(
        (f"X{k}", total.subcomplex(maximal=gens)) for k, gens in enumerate(generators)
    ))


def assert_matches_oracle(ss):
    arr = ss.arrangement
    m = len(arr.pieces)
    table = mv_oracle.intersections(arr)
    basis, cols = mv_oracle.engine_complex(arr)
    # each (subset, simplex) of a nonempty intersection once, under its degree
    # n = p + q, by ascending filtration p
    entries = [e for level in basis.values() for e in level]
    assert len(entries) == len(set(entries))
    assert set(entries) == {(len(s) - 1, s, t) for s, meet in table.items() for t in meet}
    for n, level in basis.items():
        assert all(p + len(t) - 1 == n for p, _, t in level)
        assert [p for p, _, _ in level] == sorted(p for p, _, _ in level)
        assert ss.dim_total(n) == len(level)
        for p in range(m):
            assert ss.cpq_dim(p, n - p) == sum(1 for pp, _, _ in level if pp == p)
    dc = mv_oracle.DoubleComplex(arr, basis)
    assert cols == dc.cols  # the engine's D is the oracle's D_h + D_v, bit for bit
    assert mv_oracle.differentials_square_to_zero(dc)
    for r in range(1, m + 3):
        assert ss.page(r).dims == mv_oracle.page_dims(dc, r)
        for p in range(m):
            for q in range(arr.total.dim + 1):
                assert ss.d_rank(r, p, q) == mv_oracle.d_rank(dc, r, p, q)
    cert = ss.stabilization_certificate()
    stable_from, checked = mv_oracle.stable_from(dc)
    assert cert.stable_from == stable_from
    assert f"ranks checked zero for r in {list(checked)};" in cert.detail
    assert cert.detail.endswith(f"leaves the column range 0..{m - 1}")
    assert list(arr.nerve.items()) == [(s, meet) for s, meet in table.items() if meet]
    assert all(ss.intersection_complex(s) == {arr.total.named(c) for c in meet}
               for s, meet in table.items())
    assert arr.virtual_betti() == mv_oracle.virtual_betti(arr)


@st.composite
def band_covers(draw):
    """A band cover of a 6x6 torus in 3, 8x8 in 4 or 10x10 in 8, from a
    drawn seed."""
    n, k = draw(st.sampled_from([(6, 3), (8, 4), (10, 8)]))
    return band_cover(n, k, random.Random(draw(st.integers(0, 2**32 - 1))))


def band_cover(n, k, rng):
    """An n x n grid torus cut into k closed bands of rows, with vertex
    names, vertex order, simplex order and piece order drawn from rng."""
    names = [f"t{c}" for c in range(n * n)]
    rng.shuffle(names)
    name = {(i, j): names[i * n + j] for i in range(n) for j in range(n)}
    # the squares' triangles, by row: (i, j), (i + 1, j), (i + 1, j + 1) and
    # (i, j), (i, j + 1), (i + 1, j + 1), as vertex names in a random order
    rows = [[rng.sample([name[(i + a) % n, (j + b) % n] for a, b in ((0, 0), corner, (1, 1))], 3)
             for j in range(n) for corner in ((1, 0), (0, 1))] for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    total = SimplicialComplex.from_maximal(order, rng.sample(sum(rows, []), 2 * n * n))
    shift = rng.randrange(n)
    pieces = [(f"B{b}", total.subcomplex(maximal=[
        t for i in range(round(b * n / k), round((b + 1) * n / k)) for t in rows[(i + shift) % n]]))
        for b in range(k)]
    rng.shuffle(pieces)
    return Arrangement(total, tuple(pieces))


@given(st.one_of(covered_complexes(), band_covers()))
@settings(max_examples=200, deadline=None)
def test_cleared_pairing_matches_the_uncleared_oracle(arr):
    ss = MVSpectralSequence(arr)
    assert ss._pair_counts == mv_oracle.pair_counts(*mv_oracle.engine_complex(arr))
    assert list(arr.nerve.items()) == [(s, meet) for s, meet in mv_oracle.intersections(arr).items() if meet]


@given(st.one_of(covered_complexes(), band_covers()))
@settings(max_examples=200, deadline=None)
def test_entry_dims_match_the_pair_lifetimes(arr):
    # each page entry is the size of C^{p,q} less the pairs of gap < r at
    # (p, q); the oracle counts down each vector's lifetime instead
    ss = MVSpectralSequence(arr)
    basis, _ = mv_oracle.engine_complex(arr)
    lives = mv_oracle.lifetimes(basis, ss._pair_counts)
    m = len(arr.pieces)
    for r in range(1, m + 3):
        for p in range(m + 1):
            for q in range(arr.total.dim + 2):
                assert ss.entry_dim(r, p, q) == mv_oracle.lifetime_entry_dim(lives, r, p, q)


@given(st.one_of(covered_complexes(), band_covers()))
@settings(max_examples=100, deadline=None)
def test_e1_row_sums_are_the_inclusion_exclusion(arr):
    # E_1^{p,q} is the sum of H^q over the (p+1)-fold meets, so the route
    # mvss takes to beta and the meet-by-meet route vbetti takes agree
    beta = IntPolynomial(row_alternating_sums(MVSpectralSequence(arr).page(1)))
    assert beta == arr.virtual_betti()


@given(band_covers())
@settings(max_examples=20, deadline=None)
def test_band_covers_converge_to_the_torus(arr):
    assert_converges_to_the_torus(arr)


def test_sixty_four_bands_converge_to_the_torus():
    # one row of a 64 x 64 torus per band: a 128-entry nerve of 64 pieces
    assert_converges_to_the_torus(band_cover(64, 64, random.Random(1)))


def grid_bands(n, k):
    """The n x n diagonal grid torus on vertices (i, j) in row order, cut
    into k closed bands of rows as the benchmark cuts it at shift 0: band b
    holds the triangles whose first vertex lies in rows round(b * n / k) up
    to round((b + 1) * n / k)."""
    tris = [((i, j), ((i + 1 - a) % n, (j + a) % n), ((i + 1) % n, (j + 1) % n))
            for i in range(n) for j in range(n) for a in (0, 1)]
    total = SimplicialComplex.from_maximal([(i, j) for i in range(n) for j in range(n)], tris)
    cuts = [round(b * n / k) for b in range(k + 1)]
    return Arrangement(total, tuple(
        (f"B{b}", total.subcomplex(maximal=[t for t in tris if cuts[b] <= t[0][0] < cuts[b + 1]]))
        for b in range(k)))


def test_the_mv_sequence_of_the_torus_in_8_bands_takes_under_80_mib():
    # the columns of D are kept from their run's base: the peak is about
    # 46 MiB; as ints as wide as their highest bit it was 189 MiB
    arr = grid_bands(128, 8)
    arr.nerve  # built first, as the columns and their reduction are what is weighed
    tracemalloc.start()
    try:
        ss = MVSpectralSequence(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
    assert ss.page(2).dims == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def assert_converges_to_the_torus(arr):
    ss = MVSpectralSequence(arr)
    k = len(arr.pieces)
    assert tuple(ss.converged_betti()) == (1, 2, 1)
    assert ss.page(1).dims == {(0, 0): k, (1, 0): k, (0, 1): k, (1, 1): k}
    assert ss.stabilization_certificate().stable_from == 2


@given(covered_complexes())
@settings(max_examples=200, deadline=None)
def test_pairing_matches_subspace_formulas(arr):
    assert_matches_oracle(MVSpectralSequence(arr))


@pytest.mark.parametrize("name", ["surface-443", "tangent-circles", "two-circles", "circle-alone"])
def test_pairing_matches_subspace_formulas_on_fixtures(scene, name):
    assert_matches_oracle(MVSpectralSequence(scene.arrangement(name)))


def test_page_table_lines():
    page = SpectralPage(7, {(0, 0): 1, (2, 1): 10})
    assert page.table_lines() == [
        "E_7:",
        "  q=1 |   0   0  10",
        "  q=0 |   1   0   0",
        "        -----------",
        "        p=0 p=1 p=2",
    ]


@pytest.mark.parametrize("r, p, q", [(0, 0, 0), (1, -1, 0), (1, 0, -1)])
def test_entry_dim_refuses_a_page_below_one_or_a_negative_entry(surface_ss, r, p, q):
    with pytest.raises(ValueError, match="page index must be >= 1"):
        surface_ss.entry_dim(r, p, q)


def test_the_limit_is_checked_against_direct_homology(scene, monkeypatch):
    # a wrong direct answer stands in for a wrong limit: the check must fire
    ss = MVSpectralSequence(scene.arrangement("surface-443"))
    monkeypatch.setattr(SimplicialComplex, "betti_mod2", lambda self: BettiVector((1, 1, 7)))
    with pytest.raises(ConvergenceMismatch) as info:
        ss.converged_betti()
    assert info.value.context == {"converged": [1, 1, 8], "direct": [1, 1, 7]}
