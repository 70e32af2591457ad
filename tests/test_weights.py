"""Weight-system enumeration, conditions, constraints, profile diagnostics."""

from __future__ import annotations

import random
import time
from itertools import product as iter_product
from math import comb

import pytest
import weights_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virtbetti.errors import MalformedConstraint, Verdict, WeightSearchTooLarge
from virtbetti.triangle import WeightArray, WeightSystemInput
from virtbetti.weights import (
    MAX_WEIGHT_NODES,
    LinearConstraint,
    constraint_filter,
    solve_weight_system,
)

DIAGONAL_HEAVY_SOLUTION = WeightArray(((1,), (0, 1), (3, 2, 3)))
OTHER_SOLUTION = WeightArray(((1,), (1, 0), (4, 1, 3)))


def brute_force_solutions(inp: WeightSystemInput) -> list[WeightArray]:
    """Enumerate every array with entries <= max(b) and filter both equations."""
    n = inp.n
    bound = max(inp.b)
    slots = [(i, j) for i in range(n + 1) for j in range(i + 1)]
    out = []
    for values in iter_product(range(bound + 1), repeat=len(slots)):
        rows = [
            tuple(values[slots.index((i, j))] for j in range(i + 1))
            for i in range(n + 1)
        ]
        arr = WeightArray(tuple(rows))
        if arr.diagonal_sums() == list(inp.b) and arr.row_alternating_sums() == list(inp.beta):
            out.append(arr)
    out.sort(key=weights_oracle.flat)
    return out


def test_surface_system_has_exactly_two_solutions():
    sols = solve_weight_system(WeightSystemInput((1, 1, 8), (4, -1, 3)))
    assert sols == sorted([DIAGONAL_HEAVY_SOLUTION, OTHER_SOLUTION], key=weights_oracle.flat)


def test_sub12_system_unique():
    sols = solve_weight_system(WeightSystemInput((1, 0, 3), (1, -1, 2)))
    assert len(sols) == 1
    assert sols[0].rows == ((1,), (0, 0), (0, 1, 2))


def test_sub13_system_with_constraint():
    sols = solve_weight_system(WeightSystemInput((1, 2, 3), (1, 1, 2)))
    assert len(sols) == 2
    kept = constraint_filter(
        sols, [LinearConstraint((((1, 0), 1),), "==", 0, "w10 = 0")], 2
    )
    assert len(kept.survivors) == 1
    assert kept.survivors[0].rows == ((1,), (0, 2), (0, 1, 2))


def test_every_solution_satisfies_both_equation_families():
    inp = WeightSystemInput((1, 1, 8), (4, -1, 3))
    for w in solve_weight_system(inp):
        assert w.diagonal_sums() == [1, 1, 8]
        assert w.row_alternating_sums() == [4, -1, 3]


def test_enumeration_matches_brute_force_oracle():
    rng = random.Random(20240911)
    for _ in range(25):
        n = rng.randint(0, 2)
        b = tuple(rng.randint(0, 3) for _ in range(n + 1))
        beta = tuple(rng.randint(-3, 3) for _ in range(n + 1))
        inp = WeightSystemInput(b, beta)
        assert solve_weight_system(inp) == brute_force_solutions(inp)


def test_diagonal_solution_when_b_equals_beta():
    for b in ((1, 2, 1), (2, 0, 5), (1,)):
        inp = WeightSystemInput(b, b)
        sols = solve_weight_system(inp)
        diagonal = WeightArray(
            tuple(tuple(0 for _ in range(i)) + (b[i],) for i in range(len(b)))
        )
        assert diagonal in sols


def test_infeasible_system_returns_empty():
    # row equation forces w00 = -1
    assert solve_weight_system(WeightSystemInput((0,), (-1,))) == []


def test_general_degree_three_system():
    # the system is not tied to surfaces; a 3-sphere profile works at n = 3
    inp = WeightSystemInput((1, 0, 0, 1), (1, 0, 0, 1))
    sols = solve_weight_system(inp)
    diagonal = WeightArray(((1,), (0, 0), (0, 0, 0), (0, 0, 0, 1)))
    assert sols == [diagonal]
    assert diagonal.check_manifold().holds
    assert diagonal.check_compact_nonsingular(inp).holds


def test_degree_three_brute_force_agreement():
    rng = random.Random(20241101)
    for _ in range(5):
        b = tuple(rng.randint(0, 2) for _ in range(4))
        beta = tuple(rng.randint(-2, 2) for _ in range(4))
        inp = WeightSystemInput(b, beta)
        assert solve_weight_system(inp) == brute_force_solutions(inp)


@st.composite
def weight_systems(draw):
    """Systems with n <= 4 and b_i <= 6, each b_i capped so that the oracle
    builds at most 3,000 arrays.  beta is planted as the row sums of a random
    array, or drawn at random: as it comes (mostly failing the Euler identity
    sum (-1)^i b_i = sum (-1)^j beta_j) or with beta_0 set to satisfy it."""
    n = draw(st.integers(0, 4))
    b, size = [], 1
    for i in range(n + 1):
        top = max(x for x in range(7) if size * comb(x + i, i) <= 3000)
        b.append(draw(st.integers(0, top)))
        size *= comb(b[-1] + i, i)
    if draw(st.booleans()):
        rows = []
        for i, total in enumerate(b):
            cuts = sorted(draw(st.lists(st.integers(0, total), min_size=i, max_size=i)))
            bounds = [0, *cuts, total]
            rows.append(tuple(bounds[k + 1] - bounds[k] for k in range(i + 1)))
        beta = WeightArray(tuple(rows)).row_alternating_sums()
    else:
        beta = draw(st.lists(st.integers(-8, 8), min_size=n + 1, max_size=n + 1))
        if draw(st.booleans()):
            beta[0] += sum((-1) ** i * (x - y) for i, (x, y) in enumerate(zip(b, beta)))
    return WeightSystemInput(tuple(b), tuple(beta))


@given(weight_systems())
@example(WeightSystemInput((0, 0, 2), (2, -1, -1)))  # only w22 = beta_2 = -1 fails
@settings(max_examples=300, deadline=None)
def test_search_matches_product_oracle(inp):
    assert solve_weight_system(inp) == weights_oracle.solve_weight_system(inp)


@given(weight_systems())
@settings(max_examples=300, deadline=None)
def test_search_output_passes_the_public_constructor(inp):
    # the search builds its arrays without the constructor's row and sign checks
    solutions = solve_weight_system(inp)
    assert [WeightArray(w.rows) for w in solutions] == solutions


def test_search_refuses_a_hostile_system_within_its_budget():
    # about 9 * 10^12 candidate arrays: the search must stop at its budget,
    # in well under 2 s
    rows = ((1,), (40, 60), (300, 300, 400), (20, 30, 25, 25))
    inp = WeightSystemInput((1, 100, 1000, 100), tuple(WeightArray(rows).row_alternating_sums()))
    start = time.perf_counter()
    with pytest.raises(WeightSearchTooLarge) as info:
        solve_weight_system(inp)
    assert time.perf_counter() - start < 2.0
    assert info.value.code == "weight-search-too-large"
    assert info.value.context == {
        "b": [1, 100, 1000, 100], "nodes": MAX_WEIGHT_NODES + 1, "limit": MAX_WEIGHT_NODES,
    }


def test_budget_counts_forced_entries():
    # b = beta = 0 has one solution and every entry is forced; top degree n
    # places n(n+1)/2 entries, 49,770 for n = 315 and 50,086 for n = 316
    zeros = WeightSystemInput((0,) * 316, (0,) * 316)
    assert solve_weight_system(zeros) == [WeightArray(tuple((0,) * (i + 1) for i in range(316)))]
    with pytest.raises(WeightSearchTooLarge):
        solve_weight_system(WeightSystemInput((0,) * 317, (0,) * 317))


def test_check_conditions_torus_diagonal():
    inp = WeightSystemInput((1, 2, 1), (1, 2, 1))
    diagonal = WeightArray(((1,), (0, 2), (0, 0, 1)))
    assert diagonal.check_manifold().holds
    assert diagonal.check_virtual_betti(inp.beta).holds
    assert diagonal.diagonal_sums() == list(inp.b)
    assert diagonal.check_compact_nonsingular(inp).holds


def test_check_conditions_surface_solution_fails_manifold():
    inp = WeightSystemInput((1, 1, 8), (4, -1, 3))
    manifold = DIAGONAL_HEAVY_SOLUTION.check_manifold()
    assert not manifold.holds
    assert "w(2,1)" in manifold.detail or "w(2,0)" in manifold.detail
    assert DIAGONAL_HEAVY_SOLUTION.check_virtual_betti(inp.beta).holds
    assert DIAGONAL_HEAVY_SOLUTION.diagonal_sums() == list(inp.b)


def test_check_conditions_trivial_input():
    inp = WeightSystemInput((0,), (0,))
    sols = solve_weight_system(inp)
    assert len(sols) == 1
    assert sols[0].check_manifold().holds
    assert sols[0].check_virtual_betti(inp.beta).holds
    assert sols[0].diagonal_sums() == list(inp.b)


@pytest.mark.parametrize("profile, inp", [
    (WeightArray(((1,),)), WeightSystemInput((1, 0, 1), (1, 0, 1))),
    (WeightArray(((1,), (0, 0), (0, 0, 1))), WeightSystemInput((1,), (1,))),
], ids=["fewer-rows", "more-rows"])
def test_compact_nonsingular_fails_on_another_top_degree(profile, inp):
    verdict = profile.check_compact_nonsingular(inp)
    assert not verdict.holds
    assert verdict.detail == f"profile has top degree {profile.n}, the input {inp.n}"


def test_compact_nonsingular_wants_a_diagonal_profile_with_b_equal_to_beta():
    diagonal = WeightArray(((1,), (0, 2), (0, 0, 1)))
    assert not diagonal.check_compact_nonsingular(WeightSystemInput((1, 2, 1), (1, 2, 3))).holds
    verdict = DIAGONAL_HEAVY_SOLUTION.check_compact_nonsingular(
        WeightSystemInput((1, 1, 8), (1, 1, 8)))
    assert not verdict.holds
    assert verdict.detail == "profile is not concentrated on the diagonal with b = beta"


def test_condition_texts():
    short = WeightArray(((1,), (0, 2)))
    assert DIAGONAL_HEAVY_SOLUTION.check_manifold().detail == (
        "below-diagonal entry w(2,0) = 3 is nonzero")
    assert short.check_manifold().detail == "all below-diagonal entries vanish"
    # missing rows on either side count as zero
    assert short.check_virtual_betti([1, 2, 0, 0]) == Verdict(
        True, "row alternating sums match the virtual Betti numbers")
    assert short.check_virtual_betti([1, 2, 1]).detail == (
        "virtual Betti condition fails at row j=2: alternating sum 0 != beta_2 = 1")
    assert short.check_virtual_betti([1]).detail == (
        "virtual Betti condition fails at row j=1: alternating sum 2 != beta_1 = 0")


def test_constraint_filter_reproduces_contradiction():
    sols = solve_weight_system(WeightSystemInput((1, 1, 8), (4, -1, 3)))
    result = constraint_filter(
        sols, [LinearConstraint((((2, 1), 1),), ">=", 3, "independent classes")], 2
    )
    assert result.infeasible
    assert len(result.eliminations) == 2
    assert result.blocking_constraints()[0].note == "independent classes"


def test_constraint_filter_naturality_contradiction():
    sols = solve_weight_system(WeightSystemInput((1, 1, 8), (4, -1, 3)))
    with_w10 = constraint_filter(
        sols, [LinearConstraint((((1, 0), 1),), "==", 1, "suppose w10 = 1")], 2
    )
    then_zero = constraint_filter(
        list(with_w10.survivors),
        [LinearConstraint((((1, 0), 1),), "<=", 0, "restriction to the torus forces w10 = 0")], 2
    )
    assert not with_w10.infeasible
    assert then_zero.infeasible


def test_a_constraint_above_the_top_degree_is_malformed():
    sols = solve_weight_system(WeightSystemInput((1, 1, 8), (4, -1, 3)))
    beyond = LinearConstraint.from_dict({"lhs": {"w30": 1}, "op": ">=", "rhs": 0})
    with pytest.raises(MalformedConstraint) as info:
        constraint_filter(sols, [beyond], 2)
    assert info.value.message == "constraint mentions w(3,0) beyond top degree 2"
    assert info.value.context == {"i": 3, "j": 0}
    # checked against the input's degree, not on each solution: none is needed
    with pytest.raises(MalformedConstraint) as info:
        constraint_filter([], [beyond], 2)
    assert info.value.message == "constraint mentions w(3,0) beyond top degree 2"


def test_constraint_filter_no_constraints_is_identity():
    sols = solve_weight_system(WeightSystemInput((1, 1, 8), (4, -1, 3)))
    result = constraint_filter(sols, [], 2)
    assert list(result.survivors) == sols


@pytest.mark.parametrize("make, message", [
    (lambda: WeightSystemInput((), ()), "empty weight system"),
    (lambda: WeightSystemInput((1, -1), (1, 0)), "Betti numbers must be nonnegative"),
    (lambda: WeightArray(((1,), (0, -1))), "weight entries must be nonnegative"),
], ids=["empty", "negative-b", "negative-entry"])
def test_weight_types_refuse_empty_and_negative_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_malformed_constraints_are_rejected():
    with pytest.raises(MalformedConstraint):
        LinearConstraint((((0, 1), 1),), ">=", 0)  # j > i
    for op in ("!?", [">="]):
        with pytest.raises(MalformedConstraint):
            LinearConstraint((((1, 0), 1),), op, 0)
    with pytest.raises(MalformedConstraint):
        LinearConstraint.from_dict({"lhs": {"nope": 1}, "op": ">=", "rhs": 0})
    with pytest.raises(MalformedConstraint):
        LinearConstraint.from_dict({"lhs": ["w21"], "op": ">=", "rhs": 3})
    with pytest.raises(MalformedConstraint):
        LinearConstraint.from_dict({"lhs": {"w21": "x"}, "op": ">=", "rhs": 3})
    with pytest.raises(MalformedConstraint):
        LinearConstraint.from_dict({"lhs": {"w21": 1}, "op": ">=", "rhs": "x"})
    # numbers are type-checked, not coerced by int()
    with pytest.raises(MalformedConstraint, match="rhs must be an integer, not 2.9"):
        LinearConstraint.from_dict({"lhs": {"w21": 1}, "op": ">=", "rhs": 2.9})
    with pytest.raises(MalformedConstraint, match="rhs must be an integer, not '3'"):
        LinearConstraint.from_dict({"lhs": {"w21": 1}, "op": ">=", "rhs": "3"})
    with pytest.raises(MalformedConstraint, match="coefficient of 'w21' must be an integer"):
        LinearConstraint.from_dict({"lhs": {"w21": True}, "op": ">=", "rhs": 3})
    # a long refused value is quoted by a bounded prefix; one too deep for repr is named so
    with pytest.raises(MalformedConstraint) as info:
        LinearConstraint.from_dict({"lhs": {"w21": 1}, "op": ">=", "rhs": [0] * 200_000})
    assert info.value.message == "rhs must be an integer, not " + repr([0] * 30)[:60] + "..."
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(MalformedConstraint, match="^constraint nests too deeply$"):
        LinearConstraint.from_dict({"lhs": {"w21": 1}, "op": ">=", "rhs": deep})


@pytest.mark.parametrize("lhs", [{"w21": 1, "w2_1": 2}, {"w02_01": 1, "w21": 1}])
def test_a_constraint_that_names_one_entry_twice_is_refused(lhs):
    # summed, the two would be applied as one coefficient that to_dict cannot
    # print: the JSON would report a different constraint than the one applied
    with pytest.raises(MalformedConstraint) as info:
        LinearConstraint.from_dict({"lhs": lhs, "op": ">=", "rhs": 3})
    assert info.value.message == "entry w(2,1) is named twice"
    assert info.value.context == {"i": 2, "j": 1}
    with pytest.raises(MalformedConstraint, match="named twice"):
        LinearConstraint((((2, 1), 1), ((1, 0), 1), ((2, 1), 2)), "<=", 3)


def test_constraint_dict_round_trip():
    c = LinearConstraint((((2, 1), 1), ((1, 0), -2)), ">=", 3, "note here")
    assert LinearConstraint.from_dict(c.to_dict()) == c


def test_constraint_names_at_degree_ten_and_above():
    c = LinearConstraint((((10, 2), 1), ((11, 0), 2), ((10, 10), -1), ((2, 1), 1)), "<=", 4)
    assert set(c.to_dict()["lhs"]) == {"w10_2", "w11_0", "w10_10", "w21"}
    assert c.describe() == "w21 + w10_2 + -1*w10_10 + 2*w11_0 <= 4"
    assert LinearConstraint.from_dict(c.to_dict()) == c
    # a run of three digits could split two ways, so it is not a name
    with pytest.raises(MalformedConstraint):
        LinearConstraint.from_dict({"lhs": {"w110": 1}, "op": ">=", "rhs": 0})


@pytest.mark.parametrize("key", ["w21\n", "w2_1\n", "w\u0662\u0661", "w\uff12\uff11"],
                         ids=["newline", "newline-underscore", "arabic-indic", "full-width"])
def test_entry_names_are_ascii_digits_to_the_end(key):
    with pytest.raises(MalformedConstraint):
        LinearConstraint.from_dict({"lhs": {key: 1}, "op": ">=", "rhs": 0})


def test_mv_profile_vs_virtual_betti_surface(surface_ss):
    verdict = surface_ss.filtration_profile().check_virtual_betti([4, -1, 3])
    assert not verdict.holds
    assert "j=0" in verdict.detail
    assert "3 != beta_0 = 4" in verdict.detail


def test_mv_profile_vs_virtual_betti_compact_piece():
    from virtbetti import models
    from virtbetti.cover import Arrangement
    from virtbetti.spectral import MVSpectralSequence

    torus = models.torus_minimal()
    arr = Arrangement(torus, (("X", torus.full_subcomplex()),))
    profile = MVSpectralSequence(arr).filtration_profile()
    verdict = profile.check_virtual_betti([1, 2, 1])
    assert verdict.holds


def test_mv_profile_vs_virtual_betti_disjoint_pieces(scene):
    from virtbetti.spectral import MVSpectralSequence

    profile = MVSpectralSequence(scene.arrangement("two-circles")).filtration_profile()
    assert profile.check_virtual_betti([2, 2]).holds


def test_an_array_given_as_lists_is_found_among_the_solutions():
    torus = solve_weight_system(WeightSystemInput((1, 2, 1), (1, 2, 1)))
    assert WeightArray([[1], [0, 2], [0, 0, 1]]) in torus


def test_an_input_given_as_lists_equals_one_given_as_tuples():
    assert WeightSystemInput([1, 2, 1], [1, 2, 1]) == WeightSystemInput((1, 2, 1), (1, 2, 1))
    assert hash(WeightSystemInput([1, 2, 1], [1, 2, 1])) == hash(
        WeightSystemInput((1, 2, 1), (1, 2, 1)))


def test_an_array_given_as_lists_hashes_as_its_tuples():
    assert hash(WeightArray([[1], [0, 2]])) == hash(WeightArray(((1,), (0, 2))))


def test_triangle_rendering():
    lines = DIAGONAL_HEAVY_SOLUTION.triangle_lines()
    assert lines == ["3", "1 2", "1 0 3"]


def test_tangent_circle_exact_sequence_dimensions(scene):
    # resolution sequence of the double-tangency curve: 1 + 2 = 3
    x = scene.complex("tangent-circles").betti_mod2()
    circle = scene.complex("circle").betti_mod2()
    two_circles = scene.complex("two-circles").betti_mod2()
    assert circle.get(1) + two_circles.get(1) == x.get(1) == 3
