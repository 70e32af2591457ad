"""The blow-up relation on computed values: a vertex of a closed triangulated
surface is blown up by hand, and b(Bl) - b(E) = b(X) - b(point) is checked
on Betti numbers computed from the two complexes, not declared."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from virtbetti import models
from virtbetti.scissor import check_blowup_relation
from virtbetti.simplicial import PairSpace, SimplicialComplex, product_complex

SURFACES = {
    "torus-minimal": models.torus_minimal,
    "torus-grid-4x5": lambda: models.torus_grid(4, 5),
    "sphere-2": lambda: models.sphere(2),
    "projective-plane": models.projective_plane,
}
# H_c of X minus a point: (0, b1, 1) for a closed connected surface
OPEN_BETTI = {"torus-minimal": (0, 2, 1), "torus-grid-4x5": (0, 2, 1),
              "sphere-2": (0, 0, 1), "projective-plane": (0, 1, 1)}

# the 6-vertex projective plane, renamed apart from the surface's vertices
RP2 = [tuple(f"e{i}" for i in t) for t in
       ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6))]
EXCEPTIONAL = [("e4", "e5"), ("e5", "e6"), ("e4", "e6")]  # a 3-cycle that bounds no triangle
BOUNDS_A_FACE = [("e1", "e3"), ("e3", "e4"), ("e1", "e4")]  # the boundary of (e1, e3, e4)


def _link_cycle(triangles: list[tuple], v) -> list:
    """The link of ``v``, a cycle in a closed surface, in cyclic order."""
    neighbours: dict = {}
    for t in triangles:
        if v in t:
            a, b = (u for u in t if u != v)
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
    cycle = [next(iter(neighbours))]
    while len(cycle) < len(neighbours):
        cycle.append(next(u for u in neighbours[cycle[-1]] if u not in cycle[-2:]))
    return cycle


def blow_up_vertex(x: SimplicialComplex, v) -> SimplicialComplex:
    """X blown up at vertex ``v``: the open star of v is cut out and the 6-vertex
    projective plane minus its triangle (e1, e2, e3) is glued to the link of v
    through an annulus.  The annulus has k + 3 triangles for a link of k
    vertices: the link is cut into three arcs, each arc's edges are coned to
    one of e1, e2, e3, and each edge of the triangle to the link vertex where
    its two arcs meet.  The exceptional curve is ``EXCEPTIONAL``."""
    assert not {f"e{i}" for i in range(1, 7)} & set(x.vertices)
    triangles = x.simplices_of_dim(2)
    link = _link_cycle(triangles, v)
    k, ends = len(link), ("e1", "e2", "e3")
    arc = [i * 3 // k for i in range(k)]  # the arc of link edge (link[i], link[i + 1])
    annulus = [(link[i], link[(i + 1) % k], ends[arc[i]]) for i in range(k)]
    annulus += [(link[i], ends[arc[i - 1]], ends[arc[i]]) for i in range(k) if arc[i - 1] != arc[i]]
    assert len(annulus) == k + 3
    kept = [t for t in triangles if v not in t]
    return SimplicialComplex.from_maximal(
        [u for u in x.vertices if u != v] + [f"e{i}" for i in range(1, 7)],
        kept + annulus + RP2[1:],
    )


def _crossed(k: SimplicialComplex, maximal: list[tuple]) -> tuple[SimplicialComplex, list]:
    """k x circle(3), and its simplices over the subcomplex of k spanned by ``maximal``."""
    product = product_complex(k, models.circle(3))
    below = {frozenset(s) for s in k.subcomplex(maximal=maximal).simplices}
    return product, [s for s in product.simplices if frozenset(u for u, _ in s) in below]


def _sides(name: str, v_index: int, crossed: bool, exceptional=EXCEPTIONAL):
    """The open parts (X, center) and (Bl, E) of a blow-up at the vertex
    ``v_index`` names, each crossed with a circle if ``crossed``."""
    x = SURFACES[name]()
    v = x.vertices[v_index % len(x.vertices)]
    blown, center, e = blow_up_vertex(x, v), [(v,)], exceptional
    if crossed:
        (x, center), (blown, e) = _crossed(x, center), _crossed(blown, e)
    return (PairSpace(x, x.subcomplex(maximal=center)),
            PairSpace(blown, blown.subcomplex(maximal=e)))


def _failed_checks(before: PairSpace, after: PairSpace) -> list[str]:
    """The blow-up checks that fail between X minus C and Bl minus E."""
    x, c, bl, e = (k.poincare_polynomial() for k in (
        before.total, before.boundary.as_complex(), after.total, after.boundary.as_complex()))
    failed = []
    if not check_blowup_relation(x, c, bl, e):
        failed.append("relation")
    if after.betti_compact_supports() != before.betti_compact_supports():
        failed.append("H_c")
    if after.euler_compact_supports() != before.euler_compact_supports():
        failed.append("chi_c")
    return failed


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SURFACES)), st.integers(0, 100), st.booleans())
def test_blowing_up_a_surface_point_keeps_the_relation(name, v_index, crossed):
    before, after = _sides(name, v_index, crossed)
    assert _failed_checks(before, after) == []
    if not crossed:
        # X # RP^2 gains one degree-1 class; E is a circle; X minus v is as expected
        b = before.total.betti_mod2()
        assert after.total.betti_mod2() == (b[0], b[1] + 1, b[2])
        assert after.boundary.as_complex().betti_mod2() == (1, 1)
        assert after.betti_compact_supports() == OPEN_BETTI[name]


def test_the_crossed_torus_blowup():
    before, after = _sides("torus-minimal", 0, True)
    assert after.total.n_simplices() == 1008
    assert before.betti_compact_supports() == after.betti_compact_supports() == (0, 2, 3, 1)


def test_a_wrong_exceptional_curve_fails():
    # a 3-cycle that bounds a face is a circle too, so the relation on Betti
    # numbers and chi_c cannot tell it from E: H_c of the open part can
    wrong = {"torus-minimal": (0, 3, 2), "sphere-2": (0, 1, 2), "projective-plane": (0, 2, 2)}
    for name, hc in wrong.items():
        before, after = _sides(name, 0, False, BOUNDS_A_FACE)
        assert after.betti_compact_supports() == hc
        assert _failed_checks(before, after) == ["H_c"]
