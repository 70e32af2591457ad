"""Scissor expressions: evaluation, homomorphism laws, blowup checker."""

from __future__ import annotations

import random

import pytest

from virtbetti.errors import UnknownAtom, Verdict
from virtbetti.polynomial import IntPolynomial, parse_polynomial
from virtbetti.scissor import (
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

P = parse_polynomial


def test_evaluate_examples(scene):
    reg = scene.atoms
    ellipses = scene.expression("ellipses")
    assert evaluate_beta(ellipses, reg) == P("-2 + 2*t")
    x = scene.expression("figure-eight-x")
    y = scene.expression("figure-eight-y")
    assert evaluate_beta(x, reg) == P("t")
    assert evaluate_beta(y, reg) == P("1 + 2*t")


def test_evaluate_chi_c_examples(scene):
    reg = scene.atoms
    assert evaluate_chi_c(scene.expression("circle-minus-point"), reg) == -1
    assert evaluate_chi_c(Empty(), reg) == 0
    assert evaluate_chi_c(scene.expression("figure-eight-x"), reg) == -1


def test_unknown_atom_is_reported(scene):
    with pytest.raises(UnknownAtom) as err:
        evaluate_beta(Atom("no-such-space"), scene.atoms)
    assert err.value.context["atom"] == "no-such-space"


def test_atom_record_rejects_negative_compact_nonsingular():
    with pytest.raises(ValueError):
        AtomRecord("bad", P("-1 + t"), compact_nonsingular=True)


def test_declared_atom_provenance():
    rec = AtomRecord("exotic", P("1 + 3*t^2"))
    assert rec.provenance == "declared"
    assert rec.chi_c == 4


def random_expressions(reg, count, seed=20240902, labels=False):
    """Random trees over the atoms named in ``reg``; with ``labels``, about
    half the blowup nodes carry a label."""
    rng = random.Random(seed)
    names = sorted(reg)

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return Atom(rng.choice(names)) if rng.random() > 0.05 else Empty()
        kind = rng.randrange(4)
        if kind == 0:
            return DisjointUnion(build(depth - 1), build(depth - 1))
        if kind == 1:
            return Product(build(depth - 1), build(depth - 1))
        if kind == 2:
            return ClosedDifference(build(depth - 1), build(depth - 1))
        children = build(depth - 1), build(depth - 1), build(depth - 1)
        label = f"bl-{rng.randrange(1000)}" if labels and rng.random() < 0.5 else None
        return Blowup(*children, label=label)

    return [build(rng.randint(1, 4)) for _ in range(count)]


def test_homomorphism_laws_on_random_expressions(scene):
    reg = scene.atoms
    exprs = random_expressions(reg, 1000)
    for i in range(0, len(exprs) - 1, 2):
        a, b = exprs[i], exprs[i + 1]
        assert evaluate_beta(DisjointUnion(a, b), reg) == (
            evaluate_beta(a, reg) + evaluate_beta(b, reg)
        )
        assert evaluate_beta(Product(a, b), reg) == (
            evaluate_beta(a, reg) * evaluate_beta(b, reg)
        )
    for e in exprs:
        assert evaluate_chi_c(e, reg) == evaluate_beta(e, reg).evaluate(-1)


def test_scissor_coherence_on_modelled_triples(scene):
    # spaces where X, Y and X minus Y all have independent models
    reg = scene.atoms
    cases = [
        ("circle", "point", "line"),
        ("sphere-2", "point", "plane"),
        ("sphere-3", "point", "space-3"),
    ]
    for total, closed, open_part in cases:
        assert reg[total].beta == (
            reg[open_part].beta + reg[closed].beta
        )


def test_non_topological_invariance_witnesses(scene):
    reg = scene.atoms
    x = evaluate_beta(scene.expression("figure-eight-x"), reg)
    y = evaluate_beta(scene.expression("figure-eight-y"), reg)
    assert x.coefficient(1) == 1 and y.coefficient(1) == 2
    for n in range(0, 4):
        diff = evaluate_beta(scene.expression(f"sphere-diff-{n}"), reg)
        affine = evaluate_beta(scene.expression(f"affine-{n + 1}"), reg)
        double = affine + affine
        assert diff.coefficient(n) == -1
        assert double.coefficient(n) == 0
        assert diff != double


def test_check_blowup_relation_examples():
    s2, pt, rp2, s1 = P("1 + t^2"), P("1"), P("1 + t + t^2"), P("1 + t")
    assert check_blowup_relation(s2, pt, rp2, s1).holds
    assert check_blowup_relation(s2, IntPolynomial(), s2, IntPolynomial()).holds
    # blowup along a union of components: Bl = X minus Y, E empty
    two = s1 + s1
    assert check_blowup_relation(two, s1, s1, IntPolynomial()).holds
    bad = check_blowup_relation(s2, pt, rp2 + P("t"), s1)
    assert not bad.holds
    assert "degree 1" in bad.detail


def test_degree_report(scene):
    reg = scene.atoms
    assert degree_report(scene.expression("ellipses"), reg, 1).holds
    for n in range(0, 4):
        assert degree_report(scene.expression(f"sphere-diff-{n}"), reg, n + 1).holds
    empty = degree_report(Empty(), reg, 2)
    assert not empty.holds
    assert "zero" in empty.detail
    wrong_dim = degree_report(scene.expression("ellipses"), reg, 2)
    assert not wrong_dim.holds
    # a point less two points: degree 0 as claimed, but the class is -1
    negative = degree_report(ClosedDifference(Atom("point"), Atom("two-points")), reg, 0)
    assert negative == Verdict(False, "leading coefficient -1 is not positive")

