"""Exact Z[t] arithmetic and the text round trip."""

from __future__ import annotations

import time

import polynomial_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virtbetti.polynomial import (
    IntPolynomial,
    NEG_INFINITY,
    parse_polynomial,
)

P = IntPolynomial

polys = st.builds(P, st.lists(st.integers(min_value=-50, max_value=50), max_size=6))


def test_add_examples():
    # beta(R) = beta(circle) - beta(point)
    assert P([1, 1]) + P([-1]) == P([0, 1])
    assert P([1, 1]) + P() == P([1, 1])
    assert P([1, 1]) + P([1, 1]) == P([2, 2])


def test_mul_examples():
    t = P((0, 1))
    assert t * t == P.monomial(1, 2)
    assert P([1, 1]) * P((1,)) == P([1, 1])
    # torus as a product of circles
    assert P([1, 1]) * P([1, 1]) == P([1, 2, 1])


def test_mul_matches_torus_model():
    from virtbetti.models import torus_minimal

    assert P([1, 1]) * P([1, 1]) == torus_minimal().poincare_polynomial()


def test_eval_examples():
    assert P((0, 1)).evaluate(-1) == -1
    assert P().evaluate(7) == 0
    for n in (2, 4):
        assert (P((1,)) + P.monomial(1, n)).evaluate(-1) == 2


def test_eval_matches_sphere_euler():
    from virtbetti.models import sphere

    for n in (2, 4):
        model = sphere(n)
        assert model.poincare_polynomial().evaluate(-1) == model.euler_characteristic() == 2


def test_degree_and_leading():
    assert (P([-2, 2]).degree, P([-2, 2]).leading_coefficient) == (1, 2)
    assert (P().degree, P().leading_coefficient) == (NEG_INFINITY, 0)
    for n in (1, 3, 6):
        p = P.monomial(1, n + 1) - P.monomial(1, n)
        assert (p.degree, p.leading_coefficient) == (n + 1, 1)


def test_zero_polynomial_is_canonical():
    assert P([0, 0, 0]) == P()
    assert P([1, 2]) + (-P([1, 2])) == P()
    assert P([1, 2]).coeffs == (1, 2)


def test_degree_marker_is_not_an_integer():
    assert P().degree == NEG_INFINITY
    assert P().degree != -1
    assert P().degree < 0


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(min_value=-9, max_value=9))
def test_eval_is_a_ring_homomorphism(a, b, x):
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


@given(polys)
def test_text_round_trip(p):
    assert parse_polynomial(p.to_text()) == p


# the grammar's tokens and the characters a hand-written text may slip in
ALPHABET = [*"0123456789t*^+-", " ", "\n", "\t", "x", "T", ".", "\u0663"]


@st.composite
def spaced_texts(draw):
    """``to_text()`` of a polynomial with spaces inserted at random, some of
    them inside a number."""
    text = draw(polys).to_text()
    for cut in sorted(draw(st.lists(st.integers(0, len(text)), max_size=6)), reverse=True):
        text = text[:cut] + " " + text[cut:]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(st.sampled_from(ALPHABET), max_size=16),
                 st.text(st.sampled_from("12t*^+- "), max_size=12),  # dense in near misses
                 spaced_texts()))
@example("*t")  # read as t: a quirk of the old reader that the grammar keeps
@example("1+*t")
@example("+ 007*t^02")
@example("+-t")  # refused: one sign to a term
@example("1 +- 2")
def test_parse_matches_the_sign_splitting_oracle(text):
    assert _outcome(parse_polynomial, text) == _outcome(polynomial_oracle.parse_polynomial, text)


@pytest.mark.parametrize("bad", [
    "1" * 999_999 + "x",
    " " * 999_999 + "x",
    "t" + " " * 999_998 + "x",
    "t+" * 499_999 + "x",
    "2*t^3 - " * 124_999 + "2*t^",
], ids=["digits", "leading-spaces", "spaces", "terms", "spaced-terms"])
def test_a_long_malformed_text_is_refused_in_linear_time(bad):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot parse"):
        parse_polynomial(bad)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("0", ()),
        ("4 - t + 3*t^2", (4, -1, 3)),
        ("-2 + 2*t", (-2, 2)),
        ("t^3", (0, 0, 0, 1)),
        ("1 + t", (1, 1)),
        ("-t", (0, -1)),
        ("2*t^2 + t^2", (0, 0, 3)),
    ],
)
def test_parse_examples(text, coeffs):
    assert parse_polynomial(text) == P(coeffs)


def test_parse_rejects_garbage():
    for bad in ("", "x + 1", "t^", "3**t", "1 + + 2"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)


@pytest.mark.parametrize("bad", ["\u0661 + \u0663*t^\u0662", "t^\u0662", "\uff13"])
def test_parse_rejects_non_ascii_digits(bad):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_polynomial(bad)


@pytest.mark.parametrize("bad", ["1 2", "t ^ 1 0"])
def test_parse_refuses_a_space_inside_a_number(bad):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_polynomial(bad)


@pytest.mark.parametrize("text,coeffs", [
    ("2 * t", (0, 2)),
    ("t ^ 10", (0,) * 10 + (1,)),
    (" - t", (0, -1)),
    ("2 t", (0, 2)),
    ("4 - t + 3*t^2", (4, -1, 3)),
])
def test_parse_skips_spaces_between_tokens(text, coeffs):
    assert parse_polynomial(text) == P(coeffs)


@pytest.mark.parametrize("bad", ["1 + t\n", "3\n", "t^2\n"])
def test_parse_rejects_a_trailing_newline(bad):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_polynomial(bad)


def test_render_examples():
    assert P([4, -1, 3]).to_text() == "4 - t + 3*t^2"
    assert P([-2, 2]).to_text() == "-2 + 2*t"
    assert P().to_text() == "0"
    assert P([0, 1]).to_text() == "t"
    assert P([0, -1]).to_text() == "-t"


def test_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        IntPolynomial([1.5])


@pytest.mark.parametrize("bad", [3, None, b"t", ["t"]])
def test_parse_rejects_non_strings(bad):
    with pytest.raises(ValueError, match="must be a string"):
        parse_polynomial(bad)


def test_a_number_has_at_most_4300_digits():
    # CPython's default limit for int of a string: a longer number, as a
    # coefficient or as an exponent, is outside the grammar
    assert parse_polynomial("7" * 4300 + " + t") == P((int("7" * 4300), 1))
    for bad in ("7" * 4301, "1 + " + "7" * 4301 + "*t", "t^" + "1" * 4301):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_polynomial(bad)


def test_parse_caps_the_exponent_before_building_coefficients():
    from virtbetti.simplicial import MAX_SIMPLICES

    assert parse_polynomial(f"t^{MAX_SIMPLICES}").degree == MAX_SIMPLICES
    for bad in (f"t^{MAX_SIMPLICES + 1}", "1 + t^999999999", "t^" + "9" * 4000):
        with pytest.raises(ValueError):
            parse_polynomial(bad)
