"""GF(2) linear algebra: ranks, kernels, the elimination kernel, canonical bases."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_oracle
from virtbetti.gf2 import (
    GF2Matrix,
    GF2Subspace,
    kernel_basis,
    kernel_vectors,
    pivot_rows,
    rank,
    reduced_echelon,
    span_dim,
)

# boundary matrix of the hollow triangle: rows = vertices, cols = edges
# (edges ab, ac, bc are bits 0, 1, 2)
HOLLOW_TRIANGLE = GF2Matrix(3, 3, (
    0b011,  # vertex a: edges ab, ac
    0b101,  # vertex b: edges ab, bc
    0b110,  # vertex c: edges ac, bc
))
IDENTITY_2 = GF2Matrix(2, 2, (0b01, 0b10))


def brute_force_rank(m: GF2Matrix) -> int:
    """log2 of the size of the row span, by enumerating all row subsets."""
    span = {0}
    for row in m.row_bits:
        span |= {row ^ v for v in span}
    size = len(span)
    return size.bit_length() - 1


def matrices(max_dim=8):
    rng = random.Random(20240817)
    out = []
    for _ in range(120):
        r = rng.randint(0, max_dim)
        c = rng.randint(0, max_dim)
        rows = tuple(rng.getrandbits(c) for _ in range(r))
        out.append(GF2Matrix(r, c, rows))
    return out


def test_rank_trivial_cases():
    assert rank(GF2Matrix(0, 0, ())) == 0
    assert rank(IDENTITY_2) == 2


def test_rank_hollow_triangle_matches_brute_force():
    assert rank(HOLLOW_TRIANGLE) == 2
    assert brute_force_rank(HOLLOW_TRIANGLE) == 2


@pytest.mark.parametrize("m", matrices())
def test_rank_against_brute_force_oracle(m):
    assert rank(m) == brute_force_rank(m)


@pytest.mark.parametrize("m", matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@pytest.mark.parametrize("m", matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@pytest.mark.parametrize("m", matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m).basis:
        assert m.matvec(v) == 0


def test_kernel_identity_is_zero():
    assert kernel_basis(IDENTITY_2) == GF2Subspace(2, ())


def test_kernel_of_sum_row():
    m = GF2Matrix(1, 2, (0b11,))
    assert kernel_basis(m) == GF2Subspace(2, (0b11,))


def test_kernel_hollow_triangle():
    k = kernel_basis(HOLLOW_TRIANGLE)
    assert k.dim == 1
    assert k.basis == (0b111,)
    # brute force over all 2^3 vectors
    brute = [v for v in range(8) if HOLLOW_TRIANGLE.matvec(v) == 0]
    assert sorted(brute) == [0, 0b111]


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=10),
       st.lists(st.integers(min_value=0, max_value=255), max_size=10))
def test_echelon_is_canonical(vecs_a, vecs_b):
    # equal spans iff identical echelon bases
    a = reduced_echelon(vecs_a)
    b_in = all(_in_span(v, a) for v in vecs_b)
    a_in = all(_in_span(v, reduced_echelon(vecs_b)) for v in vecs_a)
    same = reduced_echelon(vecs_b) == a
    assert same == (b_in and a_in)


def _in_span(v, basis):
    for r in basis:
        low = (r & -r).bit_length() - 1
        if (v >> low) & 1:
            v ^= r
    return v == 0


@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=12))
@settings(max_examples=200)
def test_echelon_spans_input(vectors):
    basis = reduced_echelon(vectors)
    for v in vectors:
        assert _in_span(v, basis)
    # pivots strictly ascending, each pivot column cleared elsewhere
    pivots = [(r & -r).bit_length() - 1 for r in basis]
    assert pivots == sorted(set(pivots))
    for i, r in enumerate(basis):
        for j, p in enumerate(pivots):
            if i != j:
                assert not (r >> p) & 1


# -- the elimination kernel against the insertion-time oracle ---------------


@st.composite
def bit_rows(draw):
    """(cols, rows): zero, dense and sparse rows, duplicates and sums of
    earlier rows, in shuffled order; cols runs past one 64-bit word."""
    cols = draw(st.integers(min_value=0, max_value=130))
    dense = st.integers(min_value=0, max_value=(1 << cols) - 1)
    rows = draw(st.lists(dense, max_size=6))
    if cols:
        bits = st.lists(st.integers(min_value=0, max_value=cols - 1), max_size=4)
        rows += [sum(1 << b for b in set(bs))
                 for bs in draw(st.lists(bits, max_size=20))]
    rows += [0] * draw(st.integers(min_value=0, max_value=2))
    if rows:
        picks = st.lists(st.sampled_from(rows), min_size=1, max_size=3)
        for pick in draw(st.lists(picks, max_size=6)):
            v = 0
            for r in pick:
                v ^= r
            rows.append(v)
    return cols, draw(st.permutations(rows))


@st.composite
def masked_bit_rows(draw):
    """Rows cut to a prefix of their columns."""
    cols, rows = draw(bit_rows())
    size = draw(st.integers(min_value=0, max_value=cols))
    mask = (1 << size) - 1
    return size, [r & mask for r in rows]


@given(st.one_of(bit_rows(), masked_bit_rows()))
@settings(max_examples=200)
def test_reduced_echelon_matches_oracle(matrix):
    _, rows = matrix
    assert reduced_echelon(rows) == gf2_oracle.reduced_echelon(rows)


@given(st.one_of(bit_rows(), masked_bit_rows()))
@settings(max_examples=200)
def test_rank_and_span_dim_match_oracle(matrix):
    cols, rows = matrix
    expected = len(gf2_oracle.reduced_echelon(rows))
    assert span_dim(rows) == expected
    assert rank(GF2Matrix(len(rows), cols, tuple(rows))) == expected
    # one row per pivot, keyed by its low bit, spanning the rows
    pivots = pivot_rows(rows)
    assert all(r & -r == 1 << p for p, r in pivots.items())
    assert reduced_echelon(pivots.values()) == gf2_oracle.reduced_echelon(rows)


@given(st.one_of(bit_rows(), masked_bit_rows()), st.data())
@settings(max_examples=200)
def test_pivot_rows_fed_in_two_calls_equals_one_call(matrix, data):
    _, rows = matrix
    cut = data.draw(st.integers(min_value=0, max_value=len(rows)))
    shared: dict[int, int] = {}
    assert pivot_rows(rows[:cut], shared) is shared
    assert pivot_rows(rows[cut:], shared) is shared
    # same keys, values and insertion order
    assert list(shared.items()) == list(pivot_rows(rows).items())


@given(st.one_of(bit_rows(), masked_bit_rows()))
@settings(max_examples=200)
def test_kernel_vectors_match_oracle(matrix):
    cols, rows = matrix
    kernel = kernel_vectors(rows, cols)
    for v in kernel:
        assert 0 < v < 1 << cols
        for r in rows:
            assert (r & v).bit_count() % 2 == 0
    assert len(kernel) == cols - len(gf2_oracle.reduced_echelon(rows))
    # equal spans have equal reduced echelon bases
    assert tuple(gf2_oracle.reduced_echelon(kernel)) == tuple(
        gf2_oracle.kernel_vectors(rows, cols)
    )


@st.composite
def candidate_bases(draw):
    """(ambient_dim, basis): random rows, or a reduced echelon basis that is
    maybe spoiled by a zero row, a repeated row, a swap or an added row."""
    n = draw(st.integers(min_value=0, max_value=7))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    if draw(st.booleans()):
        rows = list(reduced_echelon(rows))
        spoil = draw(st.sampled_from(["none", "zero", "repeat", "swap", "add"]))
        if spoil == "zero":
            rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), 0)
        elif rows and spoil == "repeat":
            i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows.insert(i, rows[i])
        elif len(rows) > 1:
            i, j = draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1),
                                 min_size=2, max_size=2, unique=True))
            if spoil == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif spoil == "add":
                rows[i] ^= rows[j]
    return n, tuple(rows)


@given(candidate_bases())
@settings(max_examples=300)
def test_subspace_accepts_exactly_reduced_echelon_bases(case):
    n, basis = case
    try:
        GF2Subspace(n, basis)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == (reduced_echelon(basis) == basis)


@pytest.mark.parametrize("basis", [(0b1000,), (-1,), (0b1, -0b10)])
def test_subspace_refuses_vectors_outside_the_ambient_space(basis):
    with pytest.raises(ValueError, match="outside ambient space"):
        GF2Subspace(3, basis)
