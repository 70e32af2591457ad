"""Scene files: validation, errors, and the serialize/load round trip."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
import stratified_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scissor import random_expressions

from virtbetti.cli import main
from virtbetti.errors import SceneError, UnknownName, VirtBettiError
from virtbetti.fixtures import builtin_scene
from virtbetti.polynomial import IntPolynomial
from virtbetti.scene import Scene, dump_scene, load_scene, scene_from_dict, scene_to_dict
from virtbetti.scissor import (
    Atom,
    Blowup,
    ClosedDifference,
    DisjointUnion,
    Empty,
    Product,
    evaluate_beta,
    evaluate_chi_c,
)
from virtbetti.stratified import beta_of_stratified

MINIMAL = {
    "schema_version": 1,
    "complexes": {
        "circle": {
            "vertices": ["a", "b", "c"],
            "maximal_simplices": [["a", "b"], ["b", "c"], ["c", "a"]],
        },
        "pt": {"vertices": ["a"], "maximal_simplices": [["a"]]},
    },
    "pairs": {
        "line": {"total": "circle", "boundary_maximal": [["a"]]},
    },
    "atoms": {
        "circle": {"model": "circle"},
        "pt": {"model": "pt"},
        "exotic": {"beta": "1 + 3*t^2", "chi_c": 4, "compact_nonsingular": False},
    },
    "expressions": {
        "line": {
            "op": "difference",
            "total": {"op": "atom", "name": "circle"},
            "closed": {"op": "atom", "name": "pt"},
        },
    },
    "stratifications": {
        "circle-two": {
            "strata": [
                {"name": "arc", "dim": 1, "model": {"kind": "open", "pair": "line"}},
                {"name": "pt", "dim": 0, "model": {"kind": "compact", "complex": "pt"}},
            ],
            "frontier": {"arc": ["pt"]},
        },
    },
    "arrangements": {
        "whole": {
            "total": "circle",
            "pieces": [
                {"name": "X", "maximal_simplices": [["a", "b"], ["b", "c"], ["c", "a"]]},
            ],
        },
    },
    "weight_inputs": {
        "small": {"b": [1, 1], "beta": [1, 1]},
    },
}


def test_minimal_scene_loads_and_computes():
    scene = scene_from_dict(MINIMAL)
    assert tuple(scene.complex("circle").betti_mod2()) == (1, 1)
    assert evaluate_beta(scene.expression("line"), scene.atoms).to_text() == "t"
    assert beta_of_stratified(scene.stratification("circle-two")).to_text() == "1 + t"
    assert scene.atoms["exotic"].provenance == "declared"


def test_schema_version_is_checked():
    with pytest.raises(SceneError):
        scene_from_dict({"schema_version": 99})


def test_unknown_reference_is_flagged():
    bad = json.loads(json.dumps(MINIMAL))
    bad["pairs"]["line"]["total"] = "nope"
    with pytest.raises(UnknownName):
        scene_from_dict(bad)


def test_unknown_expression_op():
    bad = json.loads(json.dumps(MINIMAL))
    bad["expressions"]["line"] = {"op": "quotient"}
    with pytest.raises(SceneError):
        scene_from_dict(bad)


def test_expression_without_an_op_is_a_scene_error():
    with pytest.raises(SceneError) as info:
        scene_from_dict({"schema_version": 1, "expressions": {"e": {}}})
    assert info.value.message == "expression 'e': expression node needs an 'op' field"


def test_a_pair_on_an_unregistered_complex_does_not_dump():
    scene = Scene(pairs={"p": scene_from_dict(MINIMAL).pair("line")})
    with pytest.raises(SceneError) as info:
        scene_to_dict(scene)
    assert info.value.message == "pair 'p': object is not registered under a scene name"


def test_face_closure_is_computed_on_load():
    scene = scene_from_dict(MINIMAL)
    assert ("a",) in scene.complex("circle").simplices


def test_round_trip_minimal():
    scene = scene_from_dict(MINIMAL)
    again = scene_from_dict(scene_to_dict(scene))
    assert again == scene


def test_round_trip_builtin_scene():
    scene = builtin_scene()
    data = scene_to_dict(scene)
    again = scene_from_dict(data)
    assert again == scene
    # serialization is canonical: a second pass is byte-identical
    assert json.dumps(data, sort_keys=True) == json.dumps(scene_to_dict(again), sort_keys=True)


def test_a_declared_stratum_round_trips():
    data = json.loads(json.dumps(MINIMAL))
    declared = {"kind": "declared", "beta": "-1 + 2*t"}
    data["stratifications"]["circle-two"]["strata"][0]["model"] = declared
    scene = scene_from_dict(data)
    dumped = scene_to_dict(scene)
    assert dumped["stratifications"]["circle-two"]["strata"][0]["model"] == declared
    assert scene_from_dict(dumped) == scene


def test_a_reference_dumps_under_the_name_of_the_identical_object():
    # sphere-pair-0 equals circle-minus-two, which is registered first
    scene = builtin_scene()
    assert scene.pair("sphere-pair-0") == scene.pair("circle-minus-two")
    model = scene_to_dict(scene)["stratifications"]["sphere-diff-0"]["strata"][0]["model"]
    assert model["pair"] == "sphere-pair-0"


def test_an_unregistered_reference_dumps_under_the_name_of_an_equal_object():
    scene = scene_from_dict(MINIMAL)
    scene.pairs = {"copy": scene_from_dict(MINIMAL).pair("line")}
    dumped = scene_to_dict(scene)
    assert dumped["pairs"]["copy"]["total"] == "circle"
    assert dumped["stratifications"]["circle-two"]["strata"][0]["model"]["pair"] == "copy"


def _fold(expr, leaf, zero):
    """The scissor rules, spelled out here independently of the package."""
    if isinstance(expr, Atom):
        return leaf(expr.name)
    if isinstance(expr, Empty):
        return zero
    if isinstance(expr, DisjointUnion):
        return _fold(expr.left, leaf, zero) + _fold(expr.right, leaf, zero)
    if isinstance(expr, Product):
        return _fold(expr.left, leaf, zero) * _fold(expr.right, leaf, zero)
    if isinstance(expr, ClosedDifference):
        return _fold(expr.total, leaf, zero) - _fold(expr.closed_part, leaf, zero)
    assert isinstance(expr, Blowup)
    return (_fold(expr.base, leaf, zero) - _fold(expr.center, leaf, zero)
            + _fold(expr.exceptional, leaf, zero))


def _atom_names(expr):
    if isinstance(expr, Atom):
        return {expr.name}
    kids = [v for v in vars(expr).values() if not isinstance(v, (str, type(None)))]
    return set().union(*map(_atom_names, kids))


def test_round_trip_random_expressions():
    base = builtin_scene()  # cached and shared: build a new scene around its atoms
    reg = base.atoms
    exprs = random_expressions(reg, 300, seed=7, labels=True)
    assert any(isinstance(e, Blowup) and e.label for e in exprs)
    scene = Scene(atoms=reg, complexes=base.complexes,
                  expressions={f"e{i:03}": e for i, e in enumerate(exprs)})
    again = scene_from_dict(json.loads(json.dumps(scene_to_dict(scene))))
    assert again.expressions == scene.expressions
    for e in exprs:
        assert evaluate_beta(e, reg) == _fold(e, lambda a: reg[a].beta, IntPolynomial.zero())
        assert evaluate_chi_c(e, reg) == _fold(e, lambda a: reg[a].chi_c, 0)


def test_readme_example_scene_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    example = next(json.loads(b) for b in blocks if '"schema_version"' in b)
    scene = scene_from_dict(example)
    assert evaluate_beta(scene.expression("line"), scene.atoms).to_text() == "t"


def test_dump_and_load_file(tmp_path):
    scene = scene_from_dict(MINIMAL)
    path = tmp_path / "scene.json"
    dump_scene(scene, str(path))
    assert load_scene(str(path)) == scene


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SceneError):
        load_scene(str(path))


def test_non_object_scene_is_a_scene_error():
    with pytest.raises(SceneError):
        scene_from_dict([1, 2])


@pytest.mark.parametrize("stratifications", [
    {"s": ["x"]},
    {"s": {"strata": ["x"]}},
    {"s": {"strata": [{"name": "a", "dim": 0, "model": "x"}]}},
    {"s": {"strata": [], "frontier": ["x"]}},
], ids=["stratification", "stratum", "model", "frontier"])
def test_non_object_stratification_parts_are_scene_errors(stratifications):
    with pytest.raises(SceneError) as info:
        scene_from_dict({"schema_version": 1, "stratifications": stratifications})
    assert "must be a JSON object" in info.value.message


@pytest.mark.parametrize("where, value, path", [
    (("complexes", "circle", "vertices"), "abc", "complex 'circle', vertices"),
    (("complexes", "circle", "maximal_simplices"), "ab", "complex 'circle', maximal_simplices"),
    (("complexes", "circle", "maximal_simplices"), ["ab", ["b", "c"]],
     "complex 'circle', maximal_simplices[0]"),
    (("pairs", "line", "boundary_maximal"), "a", "pair 'line', boundary_maximal"),
    (("pairs", "line", "boundary_maximal"), ["a"], "pair 'line', boundary_maximal[0]"),
    (("arrangements", "whole", "pieces", 0, "maximal_simplices"), "ab",
     "arrangement 'whole', piece 'X', maximal_simplices"),
    (("arrangements", "whole", "pieces", 0, "maximal_simplices"), [["a", "b"], "bc"],
     "arrangement 'whole', piece 'X', maximal_simplices[1]"),
    (("weight_inputs", "small", "b"), "11", "weight input 'small', b"),
    (("stratifications", "circle-two", "frontier", "arc"), "pt",
     "stratification 'circle-two', frontier 'arc'"),
], ids=["vertices", "maximal", "simplex", "boundary", "boundary-simplex", "piece",
        "piece-simplex", "weight-b", "frontier"])
def test_string_where_an_array_is_expected_is_a_scene_error(where, value, path):
    # iterating a string would split it into one-character vertex names
    bad = json.loads(json.dumps(MINIMAL))
    node = bad
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(SceneError) as info:
        scene_from_dict(bad)
    assert info.value.message == f"{path} must be a JSON array, not str"
    assert info.value.context == {"found": "str"}


def test_load_missing_file():
    with pytest.raises(SceneError):
        load_scene("/no/such/file.json")


def test_boundary_strata_reference(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["complexes"]["two-pts"] = {
        "vertices": ["a", "b"],
        "maximal_simplices": [["a"], ["b"]],
    }
    data["pairs"]["arcs"] = {"total": "circle", "boundary_maximal": [["a"], ["b"]]}
    data["stratifications"]["singular-boundary"] = {
        "strata": [
            {
                "name": "open-part",
                "dim": 1,
                "model": {
                    "kind": "open",
                    "pair": "arcs",
                    "boundary_nonsingular": False,
                    "boundary_strata": "two-points-strat",
                },
            },
        ],
    }
    data["stratifications"]["two-points-strat"] = {
        "strata": [
            {"name": "pts", "dim": 0, "model": {"kind": "compact", "complex": "two-pts"}},
        ],
    }
    scene = scene_from_dict(data)
    beta = beta_of_stratified(scene.stratification("singular-boundary"))
    assert beta.to_text() == "-1 + t"


def _cycle_scene(links):
    """One open stratum per stratification, whose ``boundary_strata`` names
    ``links[stratification]``."""
    model = {"kind": "open", "pair": "line", "boundary_nonsingular": False}
    return {
        "schema_version": 1,
        "complexes": MINIMAL["complexes"],
        "pairs": MINIMAL["pairs"],
        "stratifications": {
            name: {"strata": [{"name": "a", "dim": 1,
                               "model": {**model, "boundary_strata": target}}]}
            for name, target in links.items()
        },
    }


@pytest.mark.parametrize("links", [{"s": "s"}, {"s": "t", "t": "s"}], ids=["self", "mutual"])
def test_stratifications_in_a_cycle_are_refused(links, tmp_path, capsys):
    message = "stratifications reference each other in a cycle at 's'"
    with pytest.raises(SceneError) as info:
        scene_from_dict(_cycle_scene(links))
    assert info.value.message == message
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_cycle_scene(links)))
    assert main(["vbetti", "s", "--scene", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"code": "scene-error", "message": message, "context": {}}


def _with(path, value):
    """A deep copy of MINIMAL with the node at path set to value."""
    bad = json.loads(json.dumps(MINIMAL))
    node = bad
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return bad


@pytest.mark.parametrize("path, value", [
    (("atoms", "exotic", "beta"), ["1", "t"]),
    (("atoms", "exotic", "beta"), "t^100001"),
    (("stratifications", "declared"), {"strata": [
        {"name": "a", "dim": 0, "model": {"kind": "declared", "beta": "1 + t^100001"}}]}),
], ids=["atom-list", "atom-exponent", "declared-exponent"])
def test_polynomial_text_is_type_and_size_checked(path, value):
    with pytest.raises(SceneError) as info:
        scene_from_dict(_with(path, value))
    assert "malformed scene" in info.value.message


def test_exponent_at_the_simplex_cap_still_loads():
    scene = scene_from_dict(_with(("atoms", "exotic", "beta"), "t^100000"))
    assert scene.atoms["exotic"].beta.degree == 100_000


@pytest.mark.parametrize("chi_c", ["a", 1.5, True, [4]])
def test_atom_chi_c_must_be_an_integer(chi_c):
    with pytest.raises(SceneError) as info:
        scene_from_dict(_with(("atoms", "exotic", "chi_c"), chi_c))
    assert info.value.context == {"atom": "exotic"}


@pytest.mark.parametrize("provenance", ["bogus", "model:circle", 5, None, ["declared"]])
def test_atom_provenance_is_declared_or_recursive(provenance, tmp_path, capsys):
    # any other value used to load as "declared", and the dump then wrote "declared"
    bad = _with(("atoms", "exotic", "provenance"), provenance)
    with pytest.raises(SceneError) as info:
        scene_from_dict(bad)
    assert info.value.message == "atom 'exotic': provenance must be \"declared\" or \"recursive\""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(bad))
    assert main(["vbetti", "line", "--scene", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["code"] == "scene-error"
    for ok in ("declared", "recursive"):
        scene = scene_from_dict(_with(("atoms", "exotic", "provenance"), ok))
        assert scene.atoms["exotic"].provenance == ok
        assert scene_to_dict(scene)["atoms"]["exotic"]["provenance"] == ok
        # a recursive atom's flag used to be dropped, and dumped as false
        spec = {"beta": "1 + 3*t^2", "chi_c": 4, "provenance": ok, "compact_nonsingular": True}
        scene = scene_from_dict(_with(("atoms", "exotic"), spec))
        assert scene.atoms["exotic"].compact_nonsingular is True
        assert scene_to_dict(scene)["atoms"]["exotic"] == spec
        assert scene_from_dict(scene_to_dict(scene)) == scene


ARC = ("stratifications", "circle-two", "strata", 0)


@pytest.mark.parametrize("path, value, where", [
    (ARC + ("dim",), 1.9, "stratification 'circle-two', stratum 'arc', dim"),
    (ARC + ("dim",), True, "stratification 'circle-two', stratum 'arc', dim"),
    (ARC + ("dim",), "1", "stratification 'circle-two', stratum 'arc', dim"),
    (("weight_inputs", "small", "b"), ["1", 1], "weight input 'small', b[0]"),
    (("weight_inputs", "small", "b"), [1, 1.7], "weight input 'small', b[1]"),
    (("weight_inputs", "small", "beta"), [True, 1], "weight input 'small', beta[0]"),
    (("atoms", "exotic", "compact_nonsingular"), "false", "atom 'exotic', compact_nonsingular"),
    (("atoms", "exotic", "compact_nonsingular"), 0, "atom 'exotic', compact_nonsingular"),
    (("atoms", "exotic"), {"beta": "1", "provenance": "recursive", "compact_nonsingular": "yes"},
     "atom 'exotic', compact_nonsingular"),
    (ARC + ("model", "boundary_nonsingular"), "no",
     "stratification 'circle-two', stratum 'arc', boundary_nonsingular"),
], ids=["dim-float", "dim-bool", "dim-str", "b-str", "b-float", "beta-bool",
        "compact-str", "compact-int", "recursive-compact-str", "boundary-str"])
def test_numbers_and_flags_are_type_checked_not_coerced(path, value, where):
    with pytest.raises(SceneError) as info:
        scene_from_dict(_with(path, value))
    assert info.value.message.startswith(f"{where} must be ")


BLOWUP = {"op": "blowup", "base": {"op": "atom", "name": "pt"},
          "center": {"op": "atom", "name": "pt"}, "exceptional": {"op": "atom", "name": "pt"}}


@pytest.mark.parametrize("label", [[1, {"x": 2}], {"a": 1}, 3, True])
def test_blowup_label_must_be_a_string_or_null(label):
    # a list or object label used to load and leave the node unhashable
    with pytest.raises(SceneError) as info:
        scene_from_dict(_with(("expressions", "bl"), {**BLOWUP, "label": label}))
    assert info.value.message.startswith("expression 'bl'.label must be a JSON string, not ")
    for ok in (None, "E1"):
        expr = scene_from_dict(_with(("expressions", "bl"), {**BLOWUP, "label": ok})).expressions["bl"]
        assert expr.label == ok and hash(expr) == hash(expr)


@pytest.mark.parametrize("path, value", [
    (("complexes",), [1]),
    (("pairs", "line"), ["circle"]),
    (("atoms", "pt"), ["pt"]),
    (("arrangements", "whole", "pieces", 0), "X"),
    (("arrangements", "whole", "pieces"), {"X": []}),
    (("arrangements", "whole", "pieces", 0, "name"), {"X": 1}),
    (("stratifications", "circle-two", "strata"), {}),
    (("stratifications", "circle-two", "strata"), ""),
    (("expressions", "line"), ["union"]),
    (("expressions", "line", "op"), ["union"]),
    (("pairs", "line", "total"), ["circle"]),
    (("arrangements", "whole", "total"), ["circle"]),
    (("atoms", "pt", "model"), ["pt"]),
    (("expressions", "line", "closed", "name"), ["pt"]),
    (ARC + ("name",), ["arc"]),
    (ARC + ("name",), 5),
    (("stratifications", "circle-two", "strata", 1, "model", "complex"), ["pt"]),
    (ARC + ("model", "pair"), ["line"]),
    (ARC + ("model", "boundary_strata"), ["circle-two"]),
    (("stratifications", "circle-two", "frontier", "arc"), [["pt"]]),
], ids=["section", "pair", "atom", "piece", "pieces", "piece-name", "strata-object",
        "strata-str", "node", "op", "pair-total", "arrangement-total", "atom-model",
        "atom-name", "stratum-name", "stratum-name-int", "model-complex", "model-pair",
        "boundary-strata", "frontier-target"])
def test_sections_and_entries_of_the_wrong_type_are_scene_errors(path, value):
    # a list section used to escape as IndexError, a list entry as AttributeError
    with pytest.raises(SceneError) as info:
        scene_from_dict(_with(path, value))
    assert " must be a JSON " in info.value.message


def test_deep_schema_version_is_a_scene_error():
    import sys

    deep = []
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    with pytest.raises(SceneError):
        scene_from_dict(_with(("schema_version",), deep))


def test_atom_chi_c_may_be_left_out():
    bad = _with(("atoms", "exotic", "chi_c"), None)
    assert scene_from_dict(bad).atoms["exotic"].chi_c == 4  # beta(-1) of 1 + 3t^2
    del bad["atoms"]["exotic"]["chi_c"]
    assert scene_from_dict(bad).atoms["exotic"].chi_c == 4


def _deep_union(depth):
    expr = {"op": "atom", "name": "pt"}
    for _ in range(depth):
        expr = {"op": "union", "left": expr, "right": {"op": "atom", "name": "pt"}}
    return expr


def test_nesting_deeper_than_the_recursion_limit_is_a_scene_error():
    # only a dict built in process gets this deep: json.load stops a file first
    import sys

    with pytest.raises(SceneError) as info:
        scene_from_dict(_with(("expressions", "deep"), _deep_union(sys.getrecursionlimit())))
    assert info.value.message == "scene nests too deeply"


def test_scene_file_that_is_not_utf8_is_a_scene_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema_version": 1, "x": "\xff"}')
    with pytest.raises(SceneError):
        load_scene(str(path))


# -- stratification references against the recursive resolver ----------------

NAMES = ["s0", "s1", "s2", "s3"]


@st.composite
def stratification_scenes(draw):
    """Scene dicts whose stratifications name each other (themselves, in
    cycles, or names that are not there), now and then with a part malformed."""
    def pick(good, bad=()):  # a bad value about one time in 25
        return draw(st.sampled_from(bad if bad and draw(st.integers(1, 25)) == 25 else good))

    strats = {}
    for name in NAMES[:draw(st.integers(1, 4))]:
        strata = []
        for stratum_name in draw(st.lists(st.sampled_from("abc"), max_size=3)):
            kind = pick(["compact", "declared", "open", "open", "open"], ["bogus", None])
            model = {"kind": kind}
            if kind == "compact":
                model["complex"] = pick(["seg", "pt"], ["nope"])
            elif kind == "declared":
                model["beta"] = pick(["t", "1 + t", "-1"], ["t^", 1])
            elif kind == "open":
                model["pair"] = pick(["open-seg", "closed-seg"], ["nope"])
                model["boundary_strata"] = pick(NAMES + [None], ["unknown", 5, ["s0"]])
                model["boundary_nonsingular"] = pick([True, False], ["false"])
            stratum = {"name": stratum_name, "dim": pick([0, 1, 2], [1.5, "1"]),
                       "model": pick([model], [[], "x"])}
            if draw(st.integers(1, 50)) == 50:
                del stratum[draw(st.sampled_from(sorted(stratum)))]
            strata.append(stratum)
        spec = pick([{"strata": strata}], [[], "x", None])
        if isinstance(spec, dict) and draw(st.integers(0, 3)) == 0:
            spec["frontier"] = draw(st.dictionaries(st.sampled_from("abz"),
                                                    st.lists(st.sampled_from("abz"), max_size=2),
                                                    max_size=2))
        strats[name] = spec
    return {
        "schema_version": 1,
        "complexes": {"seg": {"vertices": ["a", "b"], "maximal_simplices": [["a", "b"]]},
                      "pt": {"vertices": ["a"], "maximal_simplices": [["a"]]}},
        "pairs": {"open-seg": {"total": "seg", "boundary_maximal": [["a"], ["b"]]},
                  "closed-seg": {"total": "seg", "boundary_maximal": []}},
        "stratifications": strats,
    }


def _stratifications(load, data):
    try:
        return load(data).stratifications
    except VirtBettiError as exc:
        return type(exc), exc.to_dict()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(stratification_scenes())
def test_stratification_references_resolve_as_the_recursive_resolver_does(data):
    assert _stratifications(scene_from_dict, data) == \
        _stratifications(stratified_oracle.scene_from_dict, data)
