"""The built-in fixture scene and its expectation suite.

Every expectation here is an exact integer or polynomial identity coming
from the worked examples this package is built around: the two
intersecting ellipses, the pair of figure-eight curves, punctured spheres,
the two-spheres-plus-torus surface with its spectral sequence and weight
systems, and the curve made of two circles tangent at two points.  The
suite is hermetic: all models are constructed in code, nothing is read
from disk.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator

from . import models
from .cover import Arrangement
from .errors import Record, UnknownName
from .polynomial import IntPolynomial, parse_polynomial
from .scene import Scene
from .scissor import (
    Atom,
    AtomRecord,
    Blowup,
    ClosedDifference,
    DisjointUnion,
    Empty,
    Product,
    check_blowup_relation,
    degree_report,
    evaluate_beta,
    evaluate_chi_c,
)
from .simplicial import PairSpace, SimplicialComplex, product_complex
from .stratified import (
    CompactModel,
    OpenModel,
    StratifiedSpec,
    StratumRecord,
    beta_of_stratified,
    beta_of_stratum,
    refinement_check,
)
from .triangle import WeightArray, WeightSystemInput

__all__ = ["CheckResult", "builtin_scene", "fixture_names", "run_fixture"]


class CheckResult(Record):
    fixture: str
    check: str
    passed: bool
    detail: str = ""


def _octahedron():
    verts = ("o0", "o1", "o2", "o3", "o4", "o5")
    # antipodal pairs (o0,o5), (o1,o4), (o2,o3); faces avoid them
    tris = []
    for i in (0, 5):
        for j in (1, 4):
            for k in (2, 3):
                tris.append((f"o{i}", f"o{j}", f"o{k}"))
    return SimplicialComplex.from_maximal(verts, tris)


@lru_cache(maxsize=1)
def builtin_scene() -> Scene:
    """The embedded scene holding every fixture object."""
    scene = Scene()
    cx = scene.complexes
    cx["empty"] = SimplicialComplex.empty()
    cx["point"] = models.point()
    cx["two-points"] = models.points(2)
    cx["four-points"] = models.points(4)
    cx["circle"] = models.circle(3)
    cx["circle-5"] = models.circle(5)
    circles = {"A": [(f"a{i}", f"a{(i + 1) % 3}") for i in range(3)],
               "B": [(f"b{i}", f"b{(i + 1) % 3}") for i in range(3)]}
    cx["two-circles"] = SimplicialComplex.from_maximal(
        ("a0", "a1", "a2", "b0", "b1", "b2"), circles["A"] + circles["B"]
    )
    cx["sphere-0"] = models.sphere(0)
    cx["sphere-2"] = models.sphere(2)
    cx["sphere-3"] = models.sphere(3)
    cx["sphere-4"] = models.sphere(4)
    cx["octahedron"] = _octahedron()
    cx["torus"] = models.torus_minimal()
    cx["projective-plane"] = models.projective_plane()
    cx["tangent-circles"] = models.tangent_circles()

    # pairs: (compactification, complement) models of open strata
    def pair(name, total_name, boundary_maximal):
        total = cx[total_name]
        scene.pairs[name] = PairSpace(total, total.subcomplex(maximal=boundary_maximal))

    pair("line", "circle", [("v0",)])
    pair("circle5-minus-point", "circle-5", [("v0",)])
    pair("circle-minus-two", "circle", [("v0",), ("v1",)])
    pair("circle-minus-three", "circle", [("v0",), ("v1",), ("v2",)])
    pair("plane", "sphere-2", [("v0",)])
    pair("plane-oct", "octahedron", [("o0",)])
    pair("space-3", "sphere-3", [("v0",)])
    pair("space-4", "sphere-4", [("v0",)])
    # S^n sitting inside S^(n+1) as the boundary of the first (n+1) vertices
    for n in range(0, 4):
        total_name = "circle" if n == 0 else f"sphere-{n + 1}"
        sub_verts = [f"v{i}" for i in range(n + 2)]
        boundary = list(combinations(sub_verts, n + 1))
        pair(f"sphere-pair-{n}", total_name, boundary)

    # atoms
    atoms = scene.atoms
    for name in ("point", "two-points", "four-points", "circle", "sphere-0", "sphere-2",
                 "sphere-3", "sphere-4", "torus", "projective-plane"):
        atoms[name] = AtomRecord.from_model(name, cx[name])
    for name in ("projective-line", "sphere-1"):  # the circle's model, under other names
        atoms[name] = AtomRecord.from_model(name, cx["circle"], "circle")

    def open_stratum(name, dim, pair_name, **kw):
        return StratumRecord(name, dim, OpenModel(scene.pairs[pair_name], **kw))

    # affine spaces, computed recursively from their one-point compactifications;
    # chi_c comes from simplex counts alone, independent of any Betti number
    for name, pr in (("line", "line"), ("plane", "plane"),
                     ("space-3", "space-3"), ("space-4", "space-4")):
        p = scene.pairs[pr]
        beta = beta_of_stratum(
            StratumRecord(name, p.total.dim, OpenModel(p)), strict=True
        )
        atoms[name] = AtomRecord(name, beta, p.euler_compact_supports(), "recursive")

    # expressions
    ex = scene.expressions
    ex["empty"] = Empty()
    ex["circle-minus-point"] = ClosedDifference(Atom("circle"), Atom("point"))
    ex["ellipses"] = DisjointUnion(
        Atom("circle"), ClosedDifference(Atom("circle"), Atom("four-points"))
    )
    ex["figure-eight-x"] = DisjointUnion(
        ClosedDifference(Atom("circle"), Atom("two-points")), Atom("point")
    )
    ex["figure-eight-y"] = DisjointUnion(
        Atom("circle"), ClosedDifference(Atom("circle"), Atom("point"))
    )
    ex["torus-product"] = Product(Atom("circle"), Atom("circle"))
    ex["blowup-plane"] = Blowup(
        base=Atom("plane"),
        center=Atom("point"),
        exceptional=Atom("projective-line"),
        label="plane blown up at the origin",
    )
    for n in range(0, 4):
        upper = "circle" if n == 0 else f"sphere-{n + 1}"
        ex[f"sphere-diff-{n}"] = ClosedDifference(Atom(upper), Atom(f"sphere-{n}"))
    for n, name in ((1, "line"), (2, "plane"), (3, "space-3"), (4, "space-4")):
        ex[f"affine-{n}"] = Atom(name)

    # stratifications
    st = scene.stratifications

    def compact(name, dim, cname):
        return StratumRecord(name, dim, CompactModel(cx[cname]))

    st["circle-as-one"] = StratifiedSpec(
        "circle-as-one", (compact("circle", 1, "circle"),)
    )
    st["circle-as-two"] = StratifiedSpec(
        "circle-as-two",
        (open_stratum("arc", 1, "line"), compact("pt", 0, "point")),
        {"arc": frozenset({"pt"})},
    )
    st["figure-eight-x"] = StratifiedSpec(
        "figure-eight-x",
        (open_stratum("smooth", 1, "circle-minus-two"), compact("node", 0, "point")),
        {"smooth": frozenset({"node"})},
    )
    st["figure-eight-x-fine"] = StratifiedSpec(
        "figure-eight-x-fine",
        (
            open_stratum("arc3", 1, "circle-minus-three"),
            compact("extra-point", 0, "point"),
            compact("node-fine", 0, "point"),
        ),
        {"arc3": frozenset({"extra-point", "node-fine"})},
    )
    for n in range(0, 4):
        st[f"sphere-diff-{n}"] = StratifiedSpec(
            f"sphere-diff-{n}",
            (open_stratum(f"complement-{n}", n + 1, f"sphere-pair-{n}"),),
        )

    # the two-spheres-plus-torus surface, generated from the table in models:
    # each curve less the triple points is an arc stratum, and each piece less
    # its two curves is a smooth stratum whose complement those arcs and the
    # triple points stratify
    surface = models.surface_model()
    cx["surface-443"] = surface.total
    for piece, _, _ in models.SURFACE_PIECES:
        cx[f"surface-{piece}"] = getattr(surface, piece).as_complex()
    arc_strata = {}
    for tag in models.SURFACE_CURVES:
        cx[f"surface-curve{tag}"] = getattr(surface, f"curve{tag}").as_complex()
        pair(f"surface-curve{tag}-arcs", f"surface-curve{tag}", surface.triple_points.simplices)
        arc_strata[tag] = open_stratum(f"c{tag}-arcs", 1, f"surface-curve{tag}-arcs")
    smooth_strata, frontier = [], {}
    for piece, tags, triple in models.SURFACE_PIECES:
        pair(f"surface-{piece}-smooth", f"surface-{piece}",
             [edge for tag in tags for edge in models.curve_edges(tag)])
        arcs = [arc_strata[tag] for tag in tags]
        boundary = StratifiedSpec(
            f"surface-{piece}-boundary",
            (*arcs, compact(triple, 0, "four-points")),
            {arc.name: frozenset({triple}) for arc in arcs},
        )
        st[boundary.name] = boundary
        smooth_strata.append(StratumRecord(f"{piece}-smooth", 2, OpenModel(
            scene.pairs[f"surface-{piece}-smooth"], boundary_nonsingular=False,
            boundary_strata=boundary,
        )))
        frontier[f"{piece}-smooth"] = frozenset(arc.name for arc in arcs) | {"triple-points"}
    frontier.update((arc.name, frozenset({"triple-points"})) for arc in arc_strata.values())
    st["surface-443"] = StratifiedSpec(
        "surface-443",
        (*smooth_strata, *arc_strata.values(), compact("triple-points", 0, "four-points")),
        frontier,
    )

    # arrangements
    ar = scene.arrangements
    ar["surface-443"] = Arrangement(surface.total, tuple(surface.pieces()))
    tc = cx["tangent-circles"]
    first, second = models.tangent_circle_components()
    ar["tangent-circles"] = Arrangement(
        tc, (("C1", tc.subcomplex(maximal=first)), ("C2", tc.subcomplex(maximal=second)))
    )
    two = cx["two-circles"]
    ar["two-circles"] = Arrangement(
        two, tuple((name, two.subcomplex(maximal=edges)) for name, edges in circles.items())
    )
    ar["circle-alone"] = Arrangement(
        cx["circle"], (("X", cx["circle"].full_subcomplex()),)
    )

    # weight inputs
    wi = scene.weight_inputs
    wi["surface-443"] = WeightSystemInput((1, 1, 8), (4, -1, 3))
    wi["surface-sub12"] = WeightSystemInput((1, 0, 3), (1, -1, 2))
    wi["surface-sub13"] = WeightSystemInput((1, 2, 3), (1, 1, 2))
    wi["torus"] = WeightSystemInput((1, 2, 1), (1, 2, 1))

    return scene


# -- fixtures ------------------------------------------------------------------


def _fx_chi_c(scene: Scene) -> Iterator[tuple]:
    circle = scene.atoms["circle"]
    point = scene.atoms["point"]
    yield ("chi_c(circle) = 0", circle.chi_c == 0)
    yield ("chi_c(point) = 1", point.chi_c == 1)
    expr = scene.expression("circle-minus-point")
    chi = evaluate_chi_c(expr, scene.atoms)
    yield ("chi_c(circle minus point) = -1", chi == -1, f"got {chi}")
    pair_chi = scene.pair("line").euler_compact_supports()
    yield ("compact-supports Euler of the pair = -1", pair_chi == -1)
    beta = evaluate_beta(expr, scene.atoms)
    yield ("beta(t=-1) agrees with chi_c",
           beta.evaluate(-1) == chi, f"{beta.evaluate(-1)} vs {chi}")


def _fx_ellipses(scene: Scene) -> Iterator[tuple]:
    beta = evaluate_beta(scene.expression("ellipses"), scene.atoms)
    yield ("beta = -2 + 2*t", beta == parse_polynomial("-2 + 2*t"), beta.to_text())
    yield ("beta_0 = -2", beta.coefficient(0) == -2)
    verdict = degree_report(scene.expression("ellipses"), scene.atoms, 1)
    yield ("degree 1 with positive leading coefficient", verdict.holds, verdict.detail)


def _fx_figure_eights(scene: Scene) -> Iterator[tuple]:
    bx = evaluate_beta(scene.expression("figure-eight-x"), scene.atoms)
    by = evaluate_beta(scene.expression("figure-eight-y"), scene.atoms)
    yield ("beta_1(X) = 1 from the blowup presentation", bx.coefficient(1) == 1, bx.to_text())
    yield ("beta_1(Y) = 2 from the union of circles", by.coefficient(1) == 2, by.to_text())
    strat = beta_of_stratified(scene.stratification("figure-eight-x"), strict=True)
    yield ("stratified engine agrees on X", strat == bx, f"{strat} vs {bx}")
    yield ("homeomorphic curves get different invariants", bx != by,
           f"{bx.to_text()} vs {by.to_text()}")


def _fx_spheres(scene: Scene) -> Iterator[tuple]:
    for n in range(0, 4):
        diff = evaluate_beta(scene.expression(f"sphere-diff-{n}"), scene.atoms)
        want = IntPolynomial.monomial(1, n + 1) - IntPolynomial.monomial(1, n)
        yield (f"beta_{n}(S^{n + 1} minus S^{n}) = -1",
               diff == want and diff.coefficient(n) == -1, diff.to_text())
        strat = beta_of_stratified(scene.stratification(f"sphere-diff-{n}"), strict=True)
        yield (f"stratified engine agrees for n = {n}", strat == diff, f"{strat} vs {diff}")
        affine = evaluate_beta(scene.expression(f"affine-{n + 1}"), scene.atoms)
        yield (f"beta_{n}(R^{n + 1}) = 0",
               affine == IntPolynomial.monomial(1, n + 1) and affine.coefficient(n) == 0,
               affine.to_text())


def _fx_torus(scene: Scene) -> Iterator[tuple]:
    b = scene.complex("torus").betti_mod2()
    yield ("b(torus) = (1, 2, 1)", tuple(b) == (1, 2, 1), repr(b))
    product = evaluate_beta(scene.expression("torus-product"), scene.atoms)
    yield ("beta(S1 x S1) = 1 + 2t + t^2",
           product == parse_polynomial("1 + 2*t + t^2"), product.to_text())
    staircase = product_complex(scene.complex("circle"), scene.complex("circle"))
    yield ("staircase product has torus homology", tuple(staircase.betti_mod2()) == (1, 2, 1))


def _fx_surface_homology(scene: Scene) -> Iterator[tuple]:
    b = scene.complex("surface-443").betti_mod2()
    yield ("b = (1, 1, 8)", tuple(b) == (1, 1, 8), repr(b))
    arr = scene.arrangement("surface-443")
    pieces = dict(arr.pieces)
    b12 = pieces["X1"].union(pieces["X2"]).as_complex().betti_mod2()
    b13 = pieces["X1"].union(pieces["X3"]).as_complex().betti_mod2()
    yield ("b(X1 u X2) = (1, 0, 3)", tuple(b12) == (1, 0, 3), repr(b12))
    yield ("b(X1 u X3) = (1, 2, 3)", tuple(b13) == (1, 2, 3), repr(b13))


def _fx_surface_virtual(scene: Scene) -> Iterator[tuple]:
    want = parse_polynomial("4 - t + 3*t^2")
    incl = scene.arrangement("surface-443").virtual_betti()
    yield ("inclusion-exclusion gives 4 - t + 3*t^2", incl == want, incl.to_text())
    strat = beta_of_stratified(scene.stratification("surface-443"), strict=True)
    yield ("stratified engine (17 sheets / 12 arcs / 4 points) agrees",
           strat == want, strat.to_text())
    chi = scene.complex("surface-443").euler_characteristic()
    yield ("beta(-1) = chi_c = 8", want.evaluate(-1) == chi == 8, f"{want.evaluate(-1)} vs {chi}")


_E1 = {(0, 0): 3, (1, 0): 3, (2, 0): 4, (0, 1): 2, (1, 1): 3, (0, 2): 3}
_E2 = {(0, 0): 1, (1, 0): 0, (2, 0): 3, (0, 1): 2, (1, 1): 3, (0, 2): 3}
_E3 = {(0, 0): 1, (1, 0): 0, (2, 0): 2, (0, 1): 1, (1, 1): 3, (0, 2): 3}


def _fx_surface_spectral(scene: Scene) -> Iterator[tuple]:
    # a command on the embedded scene compiles the MV engine only if it runs it
    from .spectral import MVSpectralSequence, row_alternating_sums

    ss = MVSpectralSequence(scene.arrangement("surface-443"))
    for r, table in ((1, _E1), (2, _E2), (3, _E3)):
        page = ss.page(r)
        got = {pq: page.dim(*pq) for pq in table}
        yield (f"E_{r} table matches", got == table, repr(got))
    yield ("d_2 from (0,1) to (2,0) has rank 1", ss.d_rank(2, 0, 1) == 1, str(ss.d_rank(2, 0, 1)))
    cert = ss.stabilization_certificate()
    yield ("E_3 = E_infinity with certificate",
           cert.stable_from == 3 and ss.page(3).dims == ss.page(4).dims, cert.detail)
    b = ss.converged_betti()
    yield ("converged Betti = (1, 1, 8)", tuple(b) == (1, 1, 8), repr(b))
    rows1 = row_alternating_sums(ss.page(1))
    rows2 = row_alternating_sums(ss.page(2))
    rows3 = row_alternating_sums(ss.page(3))
    yield ("E_1 row sums = (4, -1, 3)", rows1 == [4, -1, 3], repr(rows1))
    yield ("E_2 row sums = (4, -1, 3)", rows2 == [4, -1, 3], repr(rows2))
    yield ("E_3 row sums differ (3, -2, 3)", rows3 == [3, -2, 3], repr(rows3))
    verdict = ss.filtration_profile().check_virtual_betti(rows1)
    yield ("virtual Betti condition fails at row j=0 with 3 != 4",
           (not verdict.holds) and "j=0" in verdict.detail and "3 != beta_0 = 4" in verdict.detail,
           verdict.detail)


def _fx_surface_weights(scene: Scene) -> Iterator[tuple]:
    # a command on the embedded scene compiles the weight search only if it runs it
    from .weights import LinearConstraint, constraint_filter, solve_weight_system

    sols = solve_weight_system(scene.weight_input("surface-443"))
    yield ("exactly two solutions", len(sols) == 2, f"{len(sols)} solutions")
    expected = WeightArray(((1,), (0, 1), (3, 2, 3)))
    other = WeightArray(((1,), (1, 0), (4, 1, 3)))
    yield ("the filtration {1; 0,1; 3,2,3} is a solution", expected in sols)
    yield ("the alternative {1; 1,0; 4,1,3} is the other", other in sols)
    blocked = constraint_filter(
        sols,
        [LinearConstraint((((2, 1), 1),), ">=", 3,
                          "the three pairwise classes stay independent in weight 1")], 2
    )
    yield ("w21 >= 3 is infeasible", blocked.infeasible,
           "; ".join(c.describe() for c in blocked.blocking_constraints()))
    sub12 = solve_weight_system(scene.weight_input("surface-sub12"))
    yield ("X1 u X2: unique solution w2 = (0, 1, 2)",
           len(sub12) == 1 and sub12[0].rows[2] == (0, 1, 2),
           repr([s.rows for s in sub12]))
    sub13 = solve_weight_system(scene.weight_input("surface-sub13"))
    kept = constraint_filter(
        sub13,
        [LinearConstraint((((1, 0), 1),), "==", 0,
                          "restriction to the torus is injective on H^1")], 2
    )
    yield ("X1 u X3 with w10 = 0: w2 = (0, 1, 2)",
           len(kept.survivors) == 1 and kept.survivors[0].rows[2] == (0, 1, 2),
           repr([s.rows for s in kept.survivors]))
    torus_sols = solve_weight_system(scene.weight_input("torus"))
    diag_ok = any(w.check_manifold().holds for w in torus_sols)
    yield ("torus admits the diagonal (manifold) profile", diag_ok)


def _fx_tangent_circles(scene: Scene) -> Iterator[tuple]:
    # a command on the embedded scene compiles the MV engine only if it runs it
    from .spectral import MVSpectralSequence

    x = scene.complex("tangent-circles")
    b = x.betti_mod2()
    yield ("dim H^1(X) = 3", b.get(1) == 3, repr(b))
    ss = MVSpectralSequence(scene.arrangement("tangent-circles"))
    conv = ss.converged_betti()
    yield ("cover by the two circles converges to (1, 3)", tuple(conv) == (1, 3), repr(conv))
    resolution = scene.complex("two-circles").betti_mod2()
    core = scene.complex("circle").betti_mod2()
    yield ("exact sequence dimensions: 1 + 2 = 3",
           core.get(1) + resolution.get(1) == b.get(1),
           f"{core.get(1)} + {resolution.get(1)} vs {b.get(1)}")


def _fx_blowups(scene: Scene) -> Iterator[tuple]:
    atoms = scene.atoms
    s2 = atoms["sphere-2"].beta
    pt = atoms["point"].beta
    rp2 = atoms["projective-plane"].beta
    s1 = atoms["circle"].beta
    v = check_blowup_relation(s2, pt, rp2, s1)
    yield ("sphere blown up at a point is the projective plane", v.holds, v.detail)
    zero = IntPolynomial.zero()
    two_circles = s1 + s1
    v2 = check_blowup_relation(two_circles, s1, s1, zero)
    yield ("blowup along a whole component just removes it", v2.holds, v2.detail)
    v3 = check_blowup_relation(s2, pt, s2, pt)
    yield ("trivial blowup (empty-center form) holds", v3.holds, v3.detail)
    corrupted = check_blowup_relation(s2, pt, rp2 + IntPolynomial.monomial(1, 1), s1)
    yield ("corrupted quadruple is rejected", not corrupted.holds, corrupted.detail)
    blowup_beta = evaluate_beta(scene.expression("blowup-plane"), scene.atoms)
    yield ("blowup node: plane at a point gives t + t^2",
           blowup_beta == parse_polynomial("t + t^2"), blowup_beta.to_text())


def _fx_refinement(scene: Scene) -> Iterator[tuple]:
    v = refinement_check(
        scene.stratification("circle-as-one"),
        scene.stratification("circle-as-two"),
        {"circle": ["arc", "pt"]},
    )
    yield ("circle = (circle minus point) + point", v.holds, v.detail)
    v2 = refinement_check(
        scene.stratification("figure-eight-x"),
        scene.stratification("figure-eight-x-fine"),
        {"smooth": ["arc3", "extra-point"], "node": ["node-fine"]},
    )
    yield ("figure-eight stratifications agree", v2.holds, v2.detail)
    a = beta_of_stratum(StratumRecord("r2-a", 2, OpenModel(scene.pairs["plane"])), strict=True)
    b = beta_of_stratum(StratumRecord("r2-b", 2, OpenModel(scene.pairs["plane-oct"])), strict=True)
    yield ("two triangulations of the same compactification pair agree", a == b, f"{a} vs {b}")
    c1 = beta_of_stratum(StratumRecord("r1-a", 1, OpenModel(scene.pairs["line"])), strict=True)
    c2 = beta_of_stratum(
        StratumRecord("r1-b", 1, OpenModel(scene.pairs["circle5-minus-point"])), strict=True
    )
    yield ("line from 3-vertex and 5-vertex circles agrees",
           c1 == c2 == parse_polynomial("t"), f"{c1} vs {c2}")


# Each fixture yields (check, passed[, detail]); run_fixture files them under its key.
FIXTURES: dict[str, Callable[[Scene], Iterator[tuple]]] = {
    "chi-c-basics": _fx_chi_c,
    "ellipses": _fx_ellipses,
    "figure-eights": _fx_figure_eights,
    "spheres-complements": _fx_spheres,
    "torus": _fx_torus,
    "surface-443-homology": _fx_surface_homology,
    "surface-443-virtual": _fx_surface_virtual,
    "surface-443-spectral": _fx_surface_spectral,
    "surface-443-weights": _fx_surface_weights,
    "tangent-circles": _fx_tangent_circles,
    "blowup-checks": _fx_blowups,
    "refinements": _fx_refinement,
}


def fixture_names() -> list[str]:
    return list(FIXTURES)


def run_fixture(name: str, scene: Scene) -> list[CheckResult]:
    if name not in FIXTURES:
        raise UnknownName(f"no fixture named {name!r}", name=name, known=fixture_names())
    return [CheckResult(name, check, bool(passed), *detail)
            for check, passed, *detail in FIXTURES[name](scene)]

