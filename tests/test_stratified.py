"""Stratified evaluation: open strata, additivity, refinements, diagnostics."""

from __future__ import annotations

import time

import pytest
import stratified_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from virtbetti import models, stratified
from virtbetti.errors import (
    DimensionMismatch,
    InvalidStratification,
    MissingBoundaryData,
    MissingIntersection,
    NotAPartition,
    VirtBettiError,
)
from virtbetti.polynomial import IntPolynomial, parse_polynomial
from virtbetti.stratified import (
    CompactModel,
    DeclaredBeta,
    OpenModel,
    StratifiedSpec,
    StratumRecord,
    beta_of_stratified,
    beta_of_stratum,
    inclusion_exclusion,
    refinement_check,
)
from virtbetti.simplicial import PairSpace, SimplicialComplex

P = parse_polynomial


def test_open_stratum_line(scene):
    s = StratumRecord("line", 1, OpenModel(scene.pair("line")))
    assert beta_of_stratum(s) == P("t")


def test_compact_stratum_torus():
    s = StratumRecord("torus", 2, CompactModel(models.torus_minimal()))
    assert beta_of_stratum(s) == P("1 + 2*t + t^2")


def test_open_stratum_punctured_spheres(scene):
    for n in range(0, 4):
        s = StratumRecord("c", n + 1, OpenModel(scene.pair(f"sphere-pair-{n}")))
        want = IntPolynomial.monomial(1, n + 1) - IntPolynomial.monomial(1, n)
        assert beta_of_stratum(s) == want


def test_declared_beta_stratum():
    s = StratumRecord("declared", 2, DeclaredBeta(P("t^2")))
    assert beta_of_stratum(s) == P("t^2")


def test_missing_boundary_data(scene):
    s = StratumRecord(
        "bad", 2,
        OpenModel(scene.pair("surface-sphere1-smooth"), boundary_nonsingular=False),
    )
    with pytest.raises(MissingBoundaryData) as info:
        beta_of_stratum(s)
    assert str(info.value).startswith("stratum 'bad': complement is flagged singular")
    assert info.value.context == {"stratum": "bad"}
    # through a named stratification the refusal names it too
    with pytest.raises(MissingBoundaryData) as info:
        beta_of_stratified(StratifiedSpec("outer", (s,)))
    assert str(info.value).startswith(
        "stratification 'outer', stratum 'bad': complement is flagged singular")
    assert info.value.context == {"stratum": "bad", "stratification": "outer"}


def test_dimension_mismatch_is_warning_then_error(scene):
    # with a list, each failure is appended in walk order; without one, the
    # first failure (the stratum's, before the total's) is raised
    s = StratumRecord("mislabelled", 3, OpenModel(scene.pair("line")))
    spec = StratifiedSpec("one", (s,))
    failure = "polynomial t fails: degree 1 does not match claimed dimension 3"
    warnings: list[str] = []
    assert beta_of_stratified(spec, warnings=warnings) == P("t")
    assert warnings == [f"stratification 'one', stratum 'mislabelled': {failure}",
                        f"stratification 'one': total {failure}"]
    with pytest.raises(DimensionMismatch) as info:
        beta_of_stratified(spec)
    assert info.value.to_dict() == {
        "code": "dimension-mismatch",
        "message": f"stratification 'one', stratum 'mislabelled': {failure}",
        "context": {"stratum": "mislabelled", "stratification": "one"},
    }
    with pytest.raises(DimensionMismatch):
        beta_of_stratum(s)


def test_degree_warnings_name_the_stratification_and_the_stratum(scene):
    # two stratifications with a stratum "arc" each: one warning line apiece,
    # told apart by the stratification's name
    specs = [StratifiedSpec(name, (StratumRecord("arc", 3, OpenModel(scene.pair("line"))),))
             for name in ("left", "right")]
    warnings: list[str] = []
    for spec in specs:
        assert beta_of_stratified(spec, warnings=warnings) == P("t")
    arc = [w for w in warnings if "stratum 'arc'" in w]
    assert len(arc) == 2 and arc[0] != arc[1]
    assert arc[0].startswith("stratification 'left', stratum 'arc': polynomial t ")
    with pytest.raises(DimensionMismatch) as info:
        beta_of_stratified(specs[1])
    assert info.value.context == {"stratum": "arc", "stratification": "right"}


def test_an_empty_stratum_passes_and_a_zero_total_fails():
    # a stratum of dimension -1 is empty, so its zero class passes the degree
    # check; a stratification whose total is zero still fails it
    empty = StratumRecord("none", -1, DeclaredBeta(IntPolynomial.zero()))
    assert beta_of_stratum(empty) == IntPolynomial.zero()
    warnings: list[str] = []
    assert beta_of_stratified(StratifiedSpec("nothing", (empty,)), warnings=warnings).is_zero()
    assert warnings == ["stratification 'nothing': total polynomial 0 fails: polynomial is "
                        "zero: the class of a nonempty variety is never zero"]
    with pytest.raises(DimensionMismatch) as info:
        beta_of_stratified(StratifiedSpec("nothing", (empty,)))
    assert info.value.context == {"stratification": "nothing"}


def test_figure_eight_stratification(scene):
    assert beta_of_stratified(scene.stratification("figure-eight-x")) == P("t")


def test_one_stratum_spec_is_poincare():
    spec = StratifiedSpec("t", (StratumRecord("torus", 2, CompactModel(models.torus_minimal())),))
    assert beta_of_stratified(spec) == P("1 + 2*t + t^2")


def test_surface_stratification(scene):
    assert beta_of_stratified(scene.stratification("surface-443")) == P("4 - t + 3*t^2")


def test_stratification_independence(scene):
    coarse = beta_of_stratified(scene.stratification("figure-eight-x"))
    fine = beta_of_stratified(scene.stratification("figure-eight-x-fine"))
    assert coarse == fine


def test_compactification_independence(scene):
    # the same open variety through two different compactification models
    a = beta_of_stratum(StratumRecord("a", 2, OpenModel(scene.pair("plane"))))
    b = beta_of_stratum(StratumRecord("b", 2, OpenModel(scene.pair("plane-oct"))))
    assert a == b == P("t^2")


def test_additivity_on_fixture_pairs(scene):
    # beta(X) = beta(X minus Y) + beta(Y) for modelled closed pairs
    cases = [
        ("circle", "line", P("1")),
        ("sphere-2", "plane", P("1")),
    ]
    for total_name, open_name, boundary_beta in cases:
        total = scene.complex(total_name).poincare_polynomial()
        open_part = beta_of_stratum(
            StratumRecord("u", total.degree, OpenModel(scene.pair(open_name))))
        assert total == open_part + boundary_beta


def test_frontier_must_decrease_dimension():
    pt = StratumRecord("p", 0, CompactModel(models.point()))
    arc = StratumRecord("arc", 1, DeclaredBeta(P("t")))
    with pytest.raises(InvalidStratification):
        StratifiedSpec("bad", (pt, arc), {"p": frozenset({"arc"})})


def test_the_unknown_frontier_target_named_does_not_depend_on_the_hash_seed(tmp_path):
    # targets are walked in sorted order, not in the frozenset's hash order
    import json
    import os
    import subprocess
    import sys

    import virtbetti

    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"schema_version": 1, "stratifications": {"s": {
        "strata": [{"name": "p", "dim": 1, "model": {"kind": "declared", "beta": "t"}}],
        "frontier": {"p": ["zeta", "alpha", "mid", "q"]},
    }}}))
    package_root = os.path.dirname(os.path.dirname(virtbetti.__file__))
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "virtbetti.cli", "vbetti", "s", "--scene", str(path)],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 3 and proc.stdout == "", proc.stderr
        assert json.loads(proc.stderr) == {
            "code": "invalid-stratification",
            "message": "frontier target 'alpha' is not a stratum",
            "context": {"stratification": "s"},
        }


def test_frontier_targets_of_mixed_types_are_named_in_a_fixed_order():
    arc = StratumRecord("arc", 1, DeclaredBeta(P("t")))
    with pytest.raises(InvalidStratification) as info:
        StratifiedSpec("bad", (arc,), {"arc": frozenset({"zeta", 1, "alpha", None})})
    assert info.value.message == "frontier target 'alpha' is not a stratum"


def test_inclusion_exclusion_examples():
    circle = P("1 + t")
    # two ellipses meeting in four points
    ellipses = inclusion_exclusion(
        [("E1", circle), ("E2", circle)], {frozenset({0, 1}): P("4")}
    )
    assert ellipses == P("-2 + 2*t")
    single = inclusion_exclusion([("X", P("1 + 2*t + t^2"))], {})
    assert single == P("1 + 2*t + t^2")


def test_inclusion_exclusion_surface():
    sphere, torus, circle, four = P("1 + t^2"), P("1 + 2*t + t^2"), P("1 + t"), P("4")
    beta = inclusion_exclusion(
        [("X1", sphere), ("X2", sphere), ("X3", torus)],
        {
            frozenset({0, 1}): circle,
            frozenset({0, 2}): circle,
            frozenset({1, 2}): circle,
            frozenset({0, 1, 2}): four,
        },
    )
    assert beta == P("4 - t + 3*t^2")


def test_inclusion_exclusion_missing_intersection():
    with pytest.raises(MissingIntersection) as err:
        inclusion_exclusion([("A", P("1")), ("B", P("1"))], {})
    assert err.value.context["subset"] == [0, 1]


def test_refinement_identity(scene):
    spec = scene.stratification("circle-as-two")
    v = refinement_check(spec, spec, {"arc": ["arc"], "pt": ["pt"]})
    assert v.holds


def test_refinement_circle_two_ways(scene):
    v = refinement_check(
        scene.stratification("circle-as-one"),
        scene.stratification("circle-as-two"),
        {"circle": ["arc", "pt"]},
    )
    assert v.holds


def test_refinement_reads_each_mapping_value_once(scene):
    # a one-shot iterable is not used up by the partition check
    v = refinement_check(
        scene.stratification("circle-as-one"),
        scene.stratification("circle-as-two"),
        {"circle": iter(["arc", "pt"])},
    )
    assert v.holds, v.detail
    assert v.detail == "refinement compatible; total 1 + t"


def test_refinement_wrong_mapping_fails(scene):
    v = refinement_check(
        scene.stratification("figure-eight-x"),
        scene.stratification("figure-eight-x-fine"),
        {"smooth": ["arc3"], "node": ["node-fine", "extra-point"]},
    )
    assert not v.holds
    assert "smooth" in v.detail


def test_refinement_not_a_partition(scene):
    with pytest.raises(NotAPartition) as info:
        refinement_check(
            scene.stratification("figure-eight-x"),
            scene.stratification("figure-eight-x-fine"),
            {"smooth": ["arc3", "extra-point", "arc3"], "node": ["node-fine", "elsewhere"]},
        )
    assert info.value.context == {"missing": [], "duplicated": ["arc3"], "unknown": ["elsewhere"],
                                  "coarse_missing": [], "coarse_unknown": []}


def test_refinement_faults_on_the_coarse_side_are_not_a_partition(scene):
    # a mapping key the coarse side lacks, and a coarse stratum left out
    with pytest.raises(NotAPartition) as info:
        refinement_check(
            scene.stratification("figure-eight-x"),
            scene.stratification("figure-eight-x-fine"),
            {"smooth": ["arc3", "extra-point", "node-fine"], "nowhere": [], "elsewhere": []},
        )
    assert info.value.to_dict() == {
        "code": "not-a-partition",
        "message": "mapping does not partition the fine strata",
        "context": {"missing": [], "duplicated": [], "unknown": [],
                    "coarse_missing": ["node"], "coarse_unknown": ["elsewhere", "nowhere"]},
    }


def test_refinement_into_many_points_takes_linear_time():
    # one table of the fine strata and one count of the assigned names; a
    # scan of the fine strata per assigned name made this quadratic
    n = 20_000
    point = DeclaredBeta(P("1"))
    coarse = StratifiedSpec("c", (StratumRecord("points", 0, DeclaredBeta(IntPolynomial((n,)))),))
    fine = StratifiedSpec("f", tuple(StratumRecord(f"p{i}", 0, point) for i in range(n)))
    start = time.perf_counter()
    v = refinement_check(coarse, fine, {"points": [s.name for s in fine.strata]})
    assert time.perf_counter() - start < 1
    assert v.holds and v.detail == f"refinement compatible; total {n}"


def test_degree_law_on_stratified_fixtures(scene):
    for name in ("figure-eight-x", "circle-as-one", "circle-as-two", "surface-443"):
        spec = scene.stratification(name)
        beta = beta_of_stratified(spec)
        assert beta.degree == max(s.dim for s in spec.strata)
        assert beta.leading_coefficient > 0


def test_dimension_zero_strata_count_points(scene):
    spec = StratifiedSpec(
        "points", (StratumRecord("four", 0, CompactModel(models.points(4))),)
    )
    assert beta_of_stratified(spec) == P("4")


def test_refinement_evaluates_each_stratum_once(scene, monkeypatch):
    # one memo for both sides, and the totals are summed from the strata
    calls = []
    walker = stratified._beta_of_stratum
    monkeypatch.setattr(stratified, "_beta_of_stratum",
                        lambda stratum, *args: calls.append(stratum) or walker(stratum, *args))
    coarse = scene.stratification("figure-eight-x")
    fine = scene.stratification("figure-eight-x-fine")
    v = refinement_check(coarse, fine, {"smooth": ["arc3", "extra-point"], "node": ["node-fine"]})
    assert v.holds, v.detail
    assert len(calls) == len(coarse.strata) + len(fine.strata) == 5


# -- the walk against the recursive oracle -------------------------------------

_SEG = SimplicialComplex.from_maximal(["a", "b"], [["a", "b"]])
_CIRCLE = models.circle(3)
PAIRS = [PairSpace(_SEG, _SEG.subcomplex(maximal=[["a"], ["b"]])),  # open segment, t - 2
         PairSpace(_SEG, _SEG.subcomplex()),                          # empty boundary
         PairSpace(_SEG, _SEG.subcomplex(maximal=[["a"]])),           # half-open segment
         PairSpace(_CIRCLE, _CIRCLE.subcomplex(maximal=[[_CIRCLE.vertices[0]]]))]
COMPACT = [models.point(), models.points(2), _CIRCLE]
DECLARED = [P("t"), P("1 + t"), P("-1"), IntPolynomial.zero(), P("2*t^2")]


@st.composite
def stratification_dags(draw):
    """Stratifications built bottom up, each stratum's ``boundary_strata``
    one built before it (or none): chains, diamonds, strata shared between
    stratifications, singular boundaries without data, mislabelled dims."""
    specs, records = [], []
    for level in range(draw(st.integers(1, 6))):
        strata = []
        for name in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True)):
            if records and draw(st.integers(0, 4)) == 0:  # a stratum of another stratification
                shared = draw(st.sampled_from(records))
                if shared.name not in {s.name for s in strata}:
                    strata.append(shared)
                continue
            if name in {s.name for s in strata}:
                continue
            kind = draw(st.sampled_from(["compact", "declared", "open", "open"]))
            if kind == "compact":
                model = CompactModel(draw(st.sampled_from(COMPACT)))
            elif kind == "declared":
                model = DeclaredBeta(draw(st.sampled_from(DECLARED)))
            else:
                below = draw(st.sampled_from([None] + specs))
                model = OpenModel(draw(st.sampled_from(PAIRS)), draw(st.booleans()), below)
            strata.append(StratumRecord(name, draw(st.integers(-1, 2)), model))
        records += strata
        specs.append(StratifiedSpec(f"s{level}", tuple(strata)))
    return specs


def _outcome(evaluate):
    """(value or error, warnings) of one evaluation, errors by class and dict."""
    warnings: list[str] = []
    try:
        return evaluate(warnings), warnings
    except VirtBettiError as exc:
        return (type(exc), exc.to_dict()), warnings


@settings(max_examples=150, derandomize=True, deadline=None)
@given(stratification_dags(), st.data())
def test_the_walk_matches_the_recursive_oracle(specs, data):
    for spec in specs:
        # a warnings list collects the degree failures; without one the first raises
        assert _outcome(lambda w: beta_of_stratified(spec, warnings=w)) == \
            _outcome(lambda w: stratified_oracle.beta_of_stratified(spec, warnings=w))
        assert _outcome(lambda w: beta_of_stratified(spec)) == \
            _outcome(lambda w: stratified_oracle.beta_of_stratified(spec, strict=True))
        for stratum in spec.strata:
            assert _outcome(lambda w: beta_of_stratum(stratum)) == \
                _outcome(lambda w: stratified_oracle.beta_of_stratum(stratum, strict=True))
    coarse, fine = data.draw(st.sampled_from(specs)), data.draw(st.sampled_from(specs))
    if data.draw(st.booleans()) or not coarse.strata:
        fine = coarse  # the identity refinement, which holds unless an evaluation fails
        mapping = {s.name: [s.name] for s in coarse.strata}
    else:
        mapping = {s.name: [] for s in coarse.strata}
        for s in fine.strata:
            mapping[data.draw(st.sampled_from(sorted(mapping)))].append(s.name)
    assert _outcome(lambda w: refinement_check(coarse, fine, mapping)) == \
        _outcome(lambda w: stratified_oracle.refinement_check(coarse, fine, mapping))
