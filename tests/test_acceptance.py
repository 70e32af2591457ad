"""Acceptance suite: one test per criterion, every comparison exact.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion red.
"""

from __future__ import annotations

import random

import gf2_oracle
from virtbetti.gf2 import GF2Matrix, rank
from virtbetti.polynomial import IntPolynomial, parse_polynomial
from virtbetti.scissor import (
    DisjointUnion,
    Product,
    check_blowup_relation,
    evaluate_beta,
    evaluate_chi_c,
)
from virtbetti.simplicial import product_complex
from virtbetti.spectral import MVSpectralSequence, row_alternating_sums
from virtbetti.stratified import beta_of_stratified
from virtbetti.weights import (
    LinearConstraint,
    WeightArray,
    constraint_filter,
    mv_profile_vs_virtual_betti,
    solve_weight_system,
)

P = parse_polynomial


def report(n: int, text: str):
    print(f"[acceptance] criterion {n}: PASS — {text}")


def test_criterion_1_chi_c_fixtures(scene):
    reg = scene.atoms
    assert reg.lookup("circle").chi_c == 0
    assert evaluate_chi_c(scene.expression("circle-minus-point"), reg) == -1
    assert reg.lookup("point").chi_c == 1
    assert scene.pair("line").euler_compact_supports() == -1
    report(1, "chi_c: circle 0, circle minus point -1, point 1")


def test_criterion_2_ellipses(scene):
    from virtbetti.scissor import degree_report

    beta = evaluate_beta(scene.expression("ellipses"), scene.atoms)
    assert beta == P("-2 + 2*t")
    assert beta.coefficient(0) == -2
    verdict = degree_report(scene.expression("ellipses"), scene.atoms, 1)
    assert verdict.holds and beta.leading_coefficient == 2 > 0
    report(2, "ellipses: beta = -2 + 2*t, degree 1, leading 2 > 0")


def test_criterion_3_figure_eights(scene):
    bx = evaluate_beta(scene.expression("figure-eight-x"), scene.atoms)
    by = evaluate_beta(scene.expression("figure-eight-y"), scene.atoms)
    assert bx.coefficient(1) == 1
    assert by.coefficient(1) == 2
    # independent route for X through its stratification
    strat = beta_of_stratified(scene.stratification("figure-eight-x"), strict=True)
    assert strat == bx
    report(3, "figure eights: beta_1(X) = 1, beta_1(Y) = 2")


def test_criterion_4_punctured_spheres(scene):
    for n in range(0, 4):
        diff = evaluate_beta(scene.expression(f"sphere-diff-{n}"), scene.atoms)
        assert diff.coefficient(n) == -1
        strat = beta_of_stratified(scene.stratification(f"sphere-diff-{n}"), strict=True)
        assert strat == diff
        affine = evaluate_beta(scene.expression(f"affine-{n + 1}"), scene.atoms)
        assert affine.coefficient(n) == 0
    report(4, "beta_n(S^(n+1) - S^n) = -1 and beta_n(R^(n+1)) = 0 for n = 0..3")


def test_criterion_5_chi_c_equals_beta_at_minus_one(scene):
    checked = 0
    for name in sorted(scene.expressions):
        expr = scene.expressions[name]
        beta = evaluate_beta(expr, scene.atoms)
        chi = evaluate_chi_c(expr, scene.atoms)
        assert beta.evaluate(-1) == chi, name
        checked += 1
    for record in scene.atoms.records():
        assert record.beta.evaluate(-1) == record.chi_c, record.name
        checked += 1
    for name in sorted(scene.complexes):
        k = scene.complexes[name]
        assert k.poincare_polynomial().evaluate(-1) == k.euler_characteristic(), name
        checked += 1
    assert checked >= 40
    report(5, f"beta(-1) = chi_c on {checked} fixtures, both sides independent")


def test_criterion_6_surface_three_routes(scene):
    b = scene.complex("surface-443").betti_mod2()
    assert tuple(b) == (1, 1, 8)
    incl = scene.arrangement("surface-443").virtual_betti()
    assert incl == P("4 - t + 3*t^2")
    strat = beta_of_stratified(scene.stratification("surface-443"), strict=True)
    assert strat == P("4 - t + 3*t^2")
    report(6, "surface: b = (1,1,8); inclusion-exclusion and the 17/12/4 "
              "stratification both give 4 - t + 3*t^2")


E1 = {(0, 0): 3, (1, 0): 3, (2, 0): 4, (0, 1): 2, (1, 1): 3, (0, 2): 3}
E2 = {(0, 0): 1, (1, 0): 0, (2, 0): 3, (0, 1): 2, (1, 1): 3, (0, 2): 3}
E3 = {(0, 0): 1, (1, 0): 0, (2, 0): 2, (0, 1): 1, (1, 1): 3, (0, 2): 3}


def test_criterion_7_spectral_pages(surface_ss):
    for r, table in ((1, E1), (2, E2), (3, E3)):
        page = surface_ss.page(r)
        got = {pq: page.dim(*pq) for pq in table}
        assert got == table, f"page {r}"
        assert not set(page.dims) - set(table)
    assert surface_ss.d_rank(2, 0, 1) == 1
    cert = surface_ss.stabilization_certificate()
    assert cert.stable_from == 3
    assert surface_ss.page(3).dims == surface_ss.page(4).dims
    assert tuple(surface_ss.converged_betti()) == (1, 1, 8)
    report(7, "E_1, E_2, E_3 tables exact; d_2 rank 1; E_3 = E_infinity certified")


def test_criterion_8_row_alternating_sums(surface_ss):
    assert row_alternating_sums(surface_ss.page(1)) == [4, -1, 3]
    assert row_alternating_sums(surface_ss.page(2)) == [4, -1, 3]
    assert row_alternating_sums(surface_ss.page(3)) == [3, -2, 3]
    verdict = mv_profile_vs_virtual_betti(surface_ss.filtration_profile(), [4, -1, 3])
    assert not verdict.holds
    assert "j=0" in verdict.detail and "3 != beta_0 = 4" in verdict.detail
    report(8, "rows sum to (4,-1,3) at E_1 and E_2; at E_3 row j=0 gives 3 != 4")


def test_criterion_9_weight_systems(scene):
    sols = solve_weight_system(scene.weight_input("surface-443"))
    assert len(sols) == 2
    assert WeightArray(((1,), (0, 1), (3, 2, 3))) in sols
    blocked = constraint_filter(
        sols, [LinearConstraint((((2, 1), 1),), ">=", 3, "independent pairwise classes")]
    )
    assert blocked.infeasible
    sub12 = solve_weight_system(scene.weight_input("surface-sub12"))
    assert len(sub12) == 1 and sub12[0].rows[2] == (0, 1, 2)
    sub13 = constraint_filter(
        solve_weight_system(scene.weight_input("surface-sub13")),
        [LinearConstraint((((1, 0), 1),), "==", 0, "w10 = 0 by restriction to the torus")],
    )
    assert len(sub13.survivors) == 1 and sub13.survivors[0].rows[2] == (0, 1, 2)
    report(9, "weights: exactly 2 solutions incl. {1; 0,1; 3,2,3}; w21 >= 3 "
              "infeasible; both sub-unions give w2 = (0,1,2)")


def test_criterion_10a_homomorphism_laws(scene):
    from test_scissor import random_expressions

    reg = scene.atoms
    exprs = random_expressions(reg, 1000)
    assert len(exprs) == 1000
    for i in range(0, 998, 2):
        a, b = exprs[i], exprs[i + 1]
        assert evaluate_beta(DisjointUnion(a, b), reg) == (
            evaluate_beta(a, reg) + evaluate_beta(b, reg)
        )
        assert evaluate_beta(Product(a, b), reg) == (
            evaluate_beta(a, reg) * evaluate_beta(b, reg)
        )
        assert evaluate_chi_c(a, reg) == evaluate_beta(a, reg).evaluate(-1)
    report(10, "homomorphism laws hold on 1000 random expressions")


def test_criterion_10b_gf2_oracle():
    from test_gf2 import brute_force_rank

    rng = random.Random(20241005)
    for _ in range(200):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        m = GF2Matrix(r, c, tuple(rng.getrandbits(c) for _ in range(r)))
        assert rank(m) == brute_force_rank(m)
        assert rank(m) + len(gf2_oracle.kernel_vectors(m.row_bits, c)) == c
    report(10, "rank-nullity and brute-force rank agreement up to 8x8")


def test_criterion_10c_corpus_invariants(scene, surface_ss):
    # Euler consistency on every fixture complex
    for name in sorted(scene.complexes):
        k = scene.complexes[name]
        assert k.betti_mod2().euler() == k.euler_characteristic(), name
    # Kunneth on products
    for a, b in (("circle", "circle"), ("circle", "sphere-2"), ("two-points", "circle")):
        ka, kb = scene.complex(a), scene.complex(b)
        prod = product_complex(ka, kb)
        assert prod.poincare_polynomial() == (
            ka.poincare_polynomial() * kb.poincare_polynomial()
        )
    # page-Euler invariance on every arrangement
    for name in sorted(scene.arrangements):
        ss = MVSpectralSequence(scene.arrangements[name])
        pages = ss.pages(ss.infinity_index + 1)
        assert len({p.euler() for p in pages}) == 1, name
    report(10, "Euler, Kunneth and page-Euler invariants hold on the corpus")


def test_criterion_10d_blowup_fixtures(scene):
    reg = scene.atoms
    quadruples = [
        # (base, center, blowup, exceptional)
        (reg.lookup("sphere-2").beta, reg.lookup("point").beta,
         reg.lookup("projective-plane").beta, reg.lookup("circle").beta),
        (reg.lookup("circle").beta + reg.lookup("circle").beta,
         reg.lookup("circle").beta, reg.lookup("circle").beta, IntPolynomial.zero()),
        (reg.lookup("plane").beta, reg.lookup("point").beta,
         evaluate_beta(scene.expression("blowup-plane"), reg),
         reg.lookup("projective-line").beta),
    ]
    for x, c, bl, e in quadruples:
        assert check_blowup_relation(x, c, bl, e).holds
    corrupted = check_blowup_relation(
        quadruples[0][0], quadruples[0][1],
        quadruples[0][2] + P("t"), quadruples[0][3],
    )
    assert not corrupted.holds
    report(10, "blowup checker passes all fixtures and rejects the corrupted control")
