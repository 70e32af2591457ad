"""Command-line interface: outputs, exit codes, determinism, JSON mode."""

from __future__ import annotations

import json
import re
import shlex
import time
from pathlib import Path

import pytest

from virtbetti.cli import main
from virtbetti.scene import dump_scene, load_scene
from virtbetti.fixtures import builtin_scene
from virtbetti.weights import MAX_WEIGHT_NODES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_surface(capsys):
    code, out, _ = run(capsys, "betti", "surface-443")
    assert code == 0
    assert out == "b: 1 1 8\n"


def test_betti_circle_and_torus(capsys):
    assert run(capsys, "betti", "circle")[1] == "b: 1 1\n"
    assert run(capsys, "betti", "torus")[1] == "b: 1 2 1\n"


def test_betti_empty_complex(capsys):
    assert run(capsys, "betti", "empty")[1] == "b: 0\n"


def test_betti_unknown_name_exit_2(capsys):
    code, _, err = run(capsys, "betti", "no-such-complex")
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "unknown-name"
    assert "no-such-complex" in payload["message"]


def test_vbetti_unknown_name_lists_what_it_knows(capsys):
    code, _, err = run(capsys, "vbetti", "nope")
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "unknown-name"
    assert payload["message"] == "'nope' is not an expression, stratification or arrangement"
    scene = builtin_scene()  # a name in two sections is listed once
    assert payload["context"] == {"name": "nope", "known": sorted(
        {*scene.expressions, *scene.stratifications, *scene.arrangements})}


def test_vbetti_ellipses(capsys):
    code, out, _ = run(capsys, "vbetti", "ellipses")
    assert code == 0
    assert out.splitlines()[0] == "beta: -2 + 2*t"


def test_vbetti_surface_stratification(capsys):
    code, out, _ = run(capsys, "vbetti", "surface-443")
    assert code == 0
    assert out.splitlines()[0] == "beta: 4 - t + 3*t^2"


def test_vbetti_empty(capsys):
    assert run(capsys, "vbetti", "empty")[1] == "beta: 0\n"


def test_vbetti_chi_c_flag(capsys):
    _, out, _ = run(capsys, "vbetti", "circle-minus-point", "--chi-c")
    assert "chi_c: -1" in out


def test_vbetti_json(capsys):
    _, out, _ = run(capsys, "vbetti", "ellipses", "--json")
    payload = json.loads(out)
    assert payload["beta"] == "-2 + 2*t"
    assert payload["coefficients"] == [-2, 2]


def test_mvss_surface_tables(capsys):
    code, out, _ = run(capsys, "mvss", "surface-443", "--pages", "3")
    assert code == 0
    assert "E_1:" in out and "E_2:" in out and "E_3:" in out
    assert "  q=0 |   3   3   4" in out
    assert "  q=0 |   1   0   3" in out
    assert "  q=0 |   1   0   2" in out
    assert "E_infinity = E_3" in out
    assert "converged b: 1 1 8" in out
    assert "FAILS" in out and "j=0" in out


@pytest.mark.parametrize("pages", ["0", "-2"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_mvss_refuses_fewer_than_one_page(capsys, pages, json_flag):
    # the pages start at E_1: a count below 1 is a usage error, not a slice from the end
    with pytest.raises(SystemExit) as info:
        main(["mvss", "surface-443", "--pages", pages, *json_flag])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert f"argument --pages: must be at least 1, not {int(pages)}" in captured.err


def test_mvss_refuses_a_page_count_that_is_not_an_int(capsys):
    with pytest.raises(SystemExit) as info:
        main(["mvss", "surface-443", "--pages", "x"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "argument --pages: invalid int value: 'x'" in captured.err


def test_mvss_exits_3_when_the_limit_disagrees_with_direct_homology(capsys, monkeypatch):
    from virtbetti.simplicial import BettiVector, SimplicialComplex

    monkeypatch.setattr(SimplicialComplex, "betti_mod2", lambda self: BettiVector((1, 1, 7)))
    code, out, err = run(capsys, "mvss", "surface-443")
    assert code == 3
    assert json.loads(err)["code"] == "convergence-mismatch"


def test_mvss_single_piece(capsys):
    code, out, _ = run(capsys, "mvss", "circle-alone")
    assert code == 0
    assert "converged b: 1 1" in out
    assert "holds" in out


def test_mvss_tangent_circles(capsys):
    code, out, _ = run(capsys, "mvss", "tangent-circles")
    assert code == 0
    assert "converged b: 1 3" in out


def test_mvss_text_on_an_empty_cover(capsys, tmp_path):
    # every page of an empty total complex has no nonzero entry
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "complexes": {"e": {"vertices": [], "maximal_simplices": []}},
        "arrangements": {"a": {"total": "e", "pieces": [{"name": "X", "maximal_simplices": []}]}},
    }))
    code, out, _ = run(capsys, "mvss", "a", "--scene", str(path))
    assert code == 0
    prefix = "  row alternating sums: "
    sums = [json.loads(line[len(prefix):]) for line in out.splitlines()
            if line.startswith(prefix)]
    code, out, _ = run(capsys, "mvss", "a", "--scene", str(path), "--json")
    assert code == 0
    rows = json.loads(out)["row_alternating_sums"]
    assert sums == [rows[str(r)] for r in range(1, len(sums) + 1)] == [[0]] * 3


def test_mvss_json(capsys):
    _, out, _ = run(capsys, "mvss", "surface-443", "--json")
    payload = json.loads(out)
    assert payload["row_alternating_sums"]["1"] == [4, -1, 3]
    assert payload["converged_betti"] == [1, 1, 8]
    assert payload["stabilization"]["stable_from"] == 3
    assert not payload["virtual_betti_condition"]["holds"]


def test_mvss_json_lists_pages_up_to_stabilization(capsys, tmp_path):
    # a 6 x 6 grid torus in 6 bands of one row: the pages stop changing at
    # E_2, so the JSON lists max(--pages, 2) of them, not one per piece
    n = 6
    name = lambda i, j: f"{i % n},{j % n}"
    tris = [[name(i, j), name(i + 1 - a, j + a), name(i + 1, j + 1)]
            for i in range(n) for j in range(n) for a in (0, 1)]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "complexes": {"torus": {"vertices": [name(i, j) for i in range(n) for j in range(n)],
                                "maximal_simplices": tris}},
        "arrangements": {"bands": {"total": "torus", "pieces": [
            {"name": f"B{b}", "maximal_simplices": tris[2 * n * b:2 * n * (b + 1)]}
            for b in range(n)]}},
    }))
    for pages, listed in ((), 3), (("--pages", "1"), 2), (("--pages", "7"), 7):
        code, out, _ = run(capsys, "mvss", "bands", "--json", "--scene", str(path), *pages)
        assert code == 0
        payload = json.loads(out)
        assert payload["stabilization"]["stable_from"] == 2
        assert [p["r"] for p in payload["pages"]] == list(range(1, listed + 1))
        assert list(payload["row_alternating_sums"]) == [str(r) for r in range(1, listed + 1)]


def test_weights_surface(capsys):
    code, out, _ = run(capsys, "weights", "surface-443")
    assert code == 0
    assert "2 solution(s):" in out
    assert "1 0 3" in out and "1 1 4" in out


def test_weights_with_constraints(capsys, tmp_path):
    constraints = tmp_path / "c.json"
    constraints.write_text(json.dumps(
        [{"lhs": {"w21": 1}, "op": ">=", "rhs": 3, "note": "pairwise classes independent"}]
    ))
    code, out, _ = run(capsys, "weights", "surface-443", "--constraints", str(constraints))
    assert code == 0
    assert "INFEASIBLE (violates: w21 >= 3 (pairwise classes independent))" in out


def test_weights_text_with_no_solution(capsys, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "weight_inputs": {"none": {"b": [0], "beta": [-1]}}}))
    code, out, _ = run(capsys, "weights", "none", "--scene", str(path))
    assert code == 0
    assert out == ("b: 0\nbeta: -1\n"
                   "INFEASIBLE (the diagonal/row system has no nonnegative solution)\n")


def test_weights_text_with_constraints_that_a_solution_survives(capsys, tmp_path):
    constraints = tmp_path / "c.json"
    constraints.write_text(json.dumps([{"lhs": {"w21": 1}, "op": "<=", "rhs": 1, "note": "n"}]))
    code, out, _ = run(capsys, "weights", "surface-443", "--constraints", str(constraints))
    assert code == 0
    assert out.endswith("constraints:\n  w21 <= 1 (n)\n"
                        "1 solution(s) satisfy all constraints:\n"
                        "filtered solution 1:\n  3\n  0 1\n  1 1 4\n")


def test_scene_file_that_is_a_list_is_a_scene_error(capsys, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "betti", "torus", "--scene", str(path))
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["code"] == "scene-error"
    assert set(error) == {"code", "message", "context"}


def test_stratum_that_is_not_an_object_is_a_scene_error(capsys, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"schema_version": 1, "stratifications": {"s": {"strata": ["x"]}}}))
    code, out, err = run(capsys, "vbetti", "s", "--scene", str(path))
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["code"] == "scene-error"
    assert set(error) == {"code", "message", "context"}


def test_malformed_constraints_file_is_a_structured_error(capsys, tmp_path):
    constraints = tmp_path / "c.json"
    for bad in ([{"lhs": ["w21"], "op": ">=", "rhs": 3}],
                [{"lhs": {"w21": "x"}, "op": ">=", "rhs": 3}],
                [{"lhs": {"w21": 1}, "op": ">=", "rhs": 2.9}],
                [{"lhs": {"w21": True}, "op": ">=", "rhs": 3}],
                [{"lhs": {"w21": 1}, "op": ">=", "rhs": 3, "note": {"a": [1, None]}}],
                [{"lhs": {"w21": 1}, "op": ">=", "rhs": 3, "note": None}],
                [{"lhs": {"w21": 1}, "op": [">="], "rhs": 3}],
                {"lhs": {"w21": 1}, "op": ">=", "rhs": 3}):
        constraints.write_text(json.dumps(bad))
        code, out, err = run(capsys, "weights", "surface-443", "--constraints", str(constraints))
        assert code == 3
        assert out == ""
        assert json.loads(err)["code"] == "malformed-constraint"
    # the last file, an object
    assert json.loads(err)["message"] == "constraints file must be a JSON array, not dict"
    # a file that cannot be read, or whose bytes are not UTF-8
    constraints.write_bytes(b'[{"lhs": {"w21": 1}, "op": ">=", "rhs": 3, "note": "\xff"}]')
    for path in (tmp_path / "missing.json", constraints):
        code, out, err = run(capsys, "weights", "surface-443", "--constraints", str(path))
        assert code == 3
        assert out == ""
        error = json.loads(err)
        assert error["code"] == "scene-error"
        assert error["context"] == {"path": str(path)}


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_a_constraint_that_names_one_entry_twice_is_refused(capsys, tmp_path, mode):
    # applied, w21 + 2*w21 would be one constraint and the JSON would print another
    constraints = tmp_path / "c.json"
    constraints.write_text(json.dumps([{"lhs": {"w21": 1, "w2_1": 2}, "op": ">=", "rhs": 3}]))
    code, out, err = run(capsys, "weights", "surface-443", "--constraints", str(constraints),
                         *mode)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"code": "malformed-constraint",
                               "message": "entry w(2,1) is named twice",
                               "context": {"i": 2, "j": 1}}


@pytest.mark.parametrize("constraints, code", [
    ('{"not": "a list"}', "malformed-constraint"),
    ('[{"lhs": {"w21": 1}, "op": ">=", "rhs": 3', "scene-error"),
    (None, "scene-error"),
], ids=["object", "truncated", "missing"])
def test_the_constraints_file_is_read_before_the_weight_search(capsys, tmp_path,
                                                                 constraints, code):
    # the search on this input is refused; a broken constraints file used to go unreported
    scene, path = tmp_path / "scene.json", tmp_path / "c.json"
    scene.write_text(json.dumps({"schema_version": 1, "weight_inputs": {
        "big": {"b": [1, 100, 1000, 100], "beta": [241, -210, 375, 25]}}}))
    if constraints is not None:
        path.write_text(constraints)
    exit_code, out, err = run(capsys, "weights", "big", "--scene", str(scene),
                              "--constraints", str(path))
    assert exit_code == 3
    assert out == ""
    assert json.loads(err)["code"] == code


@pytest.mark.parametrize("beta", [1, -1])  # with one solution, and with none
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_a_constraint_beyond_the_top_degree_is_refused_with_or_without_solutions(
        capsys, tmp_path, beta, mode):
    scene, constraints = tmp_path / "scene.json", tmp_path / "c.json"
    scene.write_text(json.dumps({"schema_version": 1, "weight_inputs": {
        "point": {"b": [max(beta, 0)], "beta": [beta]}}}))
    constraints.write_text(json.dumps([{"lhs": {"w21": 1}, "op": ">=", "rhs": 0}]))
    code, out, err = run(capsys, "weights", "point", "--scene", str(scene),
                         "--constraints", str(constraints), *mode)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"code": "malformed-constraint",
                               "message": "constraint mentions w(2,1) beyond top degree 0",
                               "context": {"i": 2, "j": 1}}


def test_weights_diagonal_input(capsys):
    code, out, _ = run(capsys, "weights", "torus")
    assert code == 0
    assert "1 solution(s):" in out


def test_weights_json(capsys):
    _, out, _ = run(capsys, "weights", "surface-443", "--json")
    payload = json.loads(out)
    assert payload["solutions"] == [
        [[1], [0, 1], [3, 2, 3]],
        [[1], [1, 0], [4, 1, 3]],
    ]


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures", "--list")
    assert code == 0
    assert "ellipses" in out.split()
    assert "surface-443-spectral" in out.split()


def test_fixtures_run_single(capsys):
    code, out, _ = run(capsys, "fixtures", "--run", "ellipses")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_fixtures_run_all(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert out.strip().endswith("checks passed")


def test_fixtures_unknown_exit_2(capsys):
    code, _, err = run(capsys, "fixtures", "--run", "nope")
    assert code == 2
    assert json.loads(err)["code"] == "unknown-name"


def test_fixture_failure_exit_1(capsys, monkeypatch):
    from virtbetti import fixtures as fx

    def broken(scene):
        yield ("always fails", False, "injected")

    monkeypatch.setitem(fx.FIXTURES, "broken", broken)
    code, out, _ = run(capsys, "fixtures", "--run", "broken")
    assert code == 1
    assert "FAIL broken :: always fails" in out


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_fixtures_quiet_prints_only_the_failed_checks(capsys, monkeypatch, mode):
    from virtbetti import fixtures as fx

    def mixed(scene):
        yield ("passes", True)
        yield ("fails", False, "injected")

    monkeypatch.setitem(fx.FIXTURES, "mixed", mixed)
    code, out, _ = run(capsys, "fixtures", "--run", "mixed", "--quiet", *mode)
    assert code == 1
    if mode:
        assert json.loads(out) == [
            {"fixture": "mixed", "check": "fails", "passed": False, "detail": "injected"}]
    else:
        assert out == "FAIL mixed :: fails  [injected]\n1/2 checks passed\n"


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "mvss", "surface-443")
    _, second, _ = run(capsys, "mvss", "surface-443")
    assert first == second


def test_deterministic_across_processes():
    # different hash seeds must not change a single output byte
    import os
    import subprocess
    import sys

    import virtbetti

    # the child must import the very package this process imported, whether
    # it is installed or only reachable through PYTHONPATH; -B as in _child
    package_root = os.path.dirname(os.path.dirname(virtbetti.__file__))
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "virtbetti.cli", "mvss", "surface-443"],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_builtin_scene_expressions_use_only_model_or_recursive_atoms():
    # the fixtures check computed invariants: none may rest on a declared atom
    from test_scene import _atom_names

    scene = builtin_scene()
    for name, expr in scene.expressions.items():
        for atom in _atom_names(expr):
            provenance = scene.atoms[atom].provenance
            assert provenance == "recursive" or provenance.startswith("model:"), (name, atom)


@pytest.mark.parametrize("argv", [
    ["betti", "surface-443", "--strict"],
    ["mvss", "surface-443", "--strict"],
    ["weights", "surface-443", "--strict"],
    ["betti", "surface-443", "--quiet"],
    ["mvss", "surface-443", "--quiet"],
    ["weights", "surface-443", "--quiet"],
    ["fixtures", "--strict"],
], ids=lambda argv: argv[0] + argv[-1])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-1]}" in captured.err


def test_readme_cli_examples_run(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = next(b for b in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
                    if b.startswith("virtbetti "))
    constraints = next(b for b in re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
                       if b.startswith("[{"))
    (tmp_path / "constraints.json").write_text(constraints)
    quoted = 0
    for line in commands.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        argv = [str(tmp_path / a) if a == "constraints.json" else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0, line
        comment = comment.strip()
        if comment.startswith(("b: ", "beta: ")):  # a comment that quotes the output
            assert out.splitlines()[0] == comment, line
            quoted += 1
    assert quoted == 2


def test_scene_flag_reads_files(capsys, tmp_path):
    path = tmp_path / "scene.json"
    dump_scene(builtin_scene(), str(path))
    code, out, _ = run(capsys, "betti", "torus", "--scene", str(path))
    assert code == 0
    assert out == "b: 1 2 1\n"


def test_validation_error_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "complexes": {"k": {"vertices": ["a"], "maximal_simplices": [["a", "zz"]]}},
    }))
    code, _, err = run(capsys, "betti", "k", "--scene", str(path))
    assert code == 3
    assert json.loads(err)["code"] in ("scene-error", "unknown-vertex")


def test_string_vertex_lists_in_a_scene_file_are_refused(capsys, tmp_path):
    # not the filled triangle on "a", "b", "c"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "complexes": {"k": {"vertices": "abc", "maximal_simplices": ["abc"]}},
    }))
    code, out, err = run(capsys, "betti", "k", "--scene", str(path))
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "code": "scene-error",
        "message": "complex 'k', vertices must be a JSON array, not str",
        "context": {"found": "str"},
    }


def test_duplicate_vertex_in_a_scene_file_is_named(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "complexes": {"k": {"vertices": ["a", "b", "c", "b"], "maximal_simplices": [["a", "b"]]}},
    }))
    code, out, err = run(capsys, "betti", "k", "--scene", str(path))
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "code": "unknown-vertex",
        "message": "duplicate vertex 'b' in vertex list",
        "context": {"vertex": "'b'"},
    }


def test_strict_flag_turns_degree_warning_into_error(capsys, tmp_path):
    data = {
        "schema_version": 1,
        "complexes": {
            "circle": {
                "vertices": ["a", "b", "c"],
                "maximal_simplices": [["a", "b"], ["b", "c"], ["c", "a"]],
            },
            "pt": {"vertices": ["a"], "maximal_simplices": [["a"]]},
        },
        "pairs": {"line": {"total": "circle", "boundary_maximal": [["a"]]}},
        "stratifications": {
            "mislabelled": {
                "strata": [
                    {"name": "arc", "dim": 2, "model": {"kind": "open", "pair": "line"}},
                ],
            },
        },
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "vbetti", "mislabelled", "--scene", str(path))
    assert code == 0
    assert "warning" in err
    code, _, err = run(capsys, "vbetti", "mislabelled", "--scene", str(path), "--strict")
    assert code == 3
    assert json.loads(err)["code"] == "dimension-mismatch"


def test_quiet_suppresses_warnings(capsys, tmp_path):
    data = {
        "schema_version": 1,
        "complexes": {
            "circle": {
                "vertices": ["a", "b", "c"],
                "maximal_simplices": [["a", "b"], ["b", "c"], ["c", "a"]],
            },
        },
        "pairs": {"line": {"total": "circle", "boundary_maximal": [["a"]]}},
        "stratifications": {
            "mislabelled": {
                "strata": [
                    {"name": "arc", "dim": 2, "model": {"kind": "open", "pair": "line"}},
                ],
            },
        },
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    _, _, err = run(capsys, "vbetti", "mislabelled", "--scene", str(path), "--quiet")
    assert err == ""


def test_a_seventeen_piece_cover_in_a_scene_file_computes(capsys, tmp_path):
    # a 17-gon covered by its 17 edges: no bound on the number of pieces
    n = 17
    verts = [f"v{i}" for i in range(n)]
    edges = [[verts[i], verts[(i + 1) % n]] for i in range(n)]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "complexes": {"polygon": {"vertices": verts, "maximal_simplices": edges}},
        "arrangements": {"edges": {
            "total": "polygon",
            "pieces": [{"name": f"e{i}", "maximal_simplices": [e]} for i, e in enumerate(edges)],
        }},
    }))
    code, out, err = run(capsys, "mvss", "edges", "--json", "--scene", str(path))
    assert code == 0
    assert err == ""
    assert json.loads(out)["converged_betti"] == [1, 1]


@pytest.mark.parametrize("command", ["vbetti", "mvss"])
def test_a_cover_whose_meets_pass_the_cell_budget_is_refused_cheaply(capsys, tmp_path, command):
    # eight copies of a 600-cell torus meet in 247 x 600 cells
    from virtbetti.models import torus_grid
    from virtbetti.simplicial import maximal_simplices

    torus = torus_grid(10, 10)
    triangles = [list(t) for t in maximal_simplices(torus)]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "complexes": {"torus": {"vertices": list(torus.vertices), "maximal_simplices": triangles}},
        "arrangements": {"copies": {
            "total": "torus",
            "pieces": [{"name": f"P{i}", "maximal_simplices": triangles} for i in range(8)],
        }},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "copies", "--scene", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["code"] == "too-many-simplices"
    assert error["context"] == {"limit": 100_000}


def test_hostile_weight_input_in_a_scene_file_is_refused(capsys, tmp_path):
    # beta planted by ((1,), (40, 60), (300, 300, 400), (20, 30, 25, 25))
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "weight_inputs": {"hostile": {"b": [1, 100, 1000, 100], "beta": [241, -210, 375, 25]}},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "weights", "hostile", "--json", "--scene", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["code"] == "weight-search-too-large"
    assert error["context"] == {
        "b": [1, 100, 1000, 100], "nodes": MAX_WEIGHT_NODES + 1, "limit": MAX_WEIGHT_NODES,
    }


@pytest.mark.parametrize("where", ["pair", "arrangement"])
def test_huge_simplex_in_a_scene_file_is_refused_cheaply(capsys, tmp_path, where):
    # 40 isolated vertices, and a subcomplex spanned by the 40-vertex simplex
    # on them: its 2^40 - 1 faces must be refused before any is built
    verts = [f"v{i}" for i in range(40)]
    data = {
        "schema_version": 1,
        "complexes": {"points": {"vertices": verts, "maximal_simplices": []}},
    }
    if where == "pair":
        data["pairs"] = {"huge": {"total": "points", "boundary_maximal": [verts]}}
    else:
        data["arrangements"] = {"huge": {
            "total": "points", "pieces": [{"name": "all", "maximal_simplices": [verts]}],
        }}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "betti", "points", "--scene", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["code"] == "scene-error"


def _atom_scene(**spec):
    return json.dumps({"schema_version": 1, "atoms": {"x": {"beta": "1 + t", **spec}}})


def _declared_scene(beta):
    model = {"kind": "declared", "beta": beta}
    return json.dumps({"schema_version": 1, "stratifications": {
        "s": {"strata": [{"name": "a", "dim": 0, "model": model}]}}})


# a union of 3,001 points nested 3,000 deep; too deep for json.dumps to write
DEEP_EXPRESSION = (
    '{"schema_version": 1, "complexes": {"pt": {"vertices": ["a"], "maximal_simplices": [["a"]]}},'
    ' "atoms": {"pt": {"model": "pt"}}, "expressions": {"deep": '
    + '{"op": "union", "right": {"op": "atom", "name": "pt"}, "left": ' * 3000
    + '{"op": "atom", "name": "pt"}' + "}" * 3000 + "}}"
)

# (scene file text, constraints file text); one of them is None
HOSTILE_FILES = {
    "atom-beta-int": (_atom_scene(beta=3), None),
    "atom-beta-nine-digit-exponent": (_atom_scene(beta="t^999999999"), None),
    "atom-beta-5000-digits": (_atom_scene(beta="1" * 5000), None),
    "declared-beta-int": (_declared_scene(3), None),
    "declared-beta-nine-digit-exponent": (_declared_scene("1 + t^999999999"), None),
    "chi-c-string": (_atom_scene(chi_c="a"), None),
    "chi-c-float": (_atom_scene(chi_c=1.5), None),
    "chi-c-true": (_atom_scene(chi_c=True), None),
    "deep-expression": (DEEP_EXPRESSION, None),
    "deep-constraints": (None, "[" * 3000 + "]" * 3000),
}


def _child(*argv):
    """``python *argv`` in a fresh interpreter that imports the very package
    this process imported, so a traceback or a second message shows.  Its
    environment has no PYTHONDONTWRITEBYTECODE, so ``-B`` keeps bytecode out
    of the source tree."""
    import os
    import subprocess
    import sys

    import virtbetti

    package_root = os.path.dirname(os.path.dirname(virtbetti.__file__))
    return subprocess.run(
        [sys.executable, "-B", *argv], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}, timeout=60,
    )


@pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
def test_hostile_scene_and_constraints_files_exit_3_in_a_child(tmp_path, case):
    scene, constraints = HOSTILE_FILES[case]
    if scene is not None:
        path = tmp_path / "scene.json"
        path.write_text(scene)
        argv = ["vbetti", "x", "--chi-c", "--scene", str(path)]
    else:
        path = tmp_path / "constraints.json"
        path.write_text(constraints)
        argv = ["weights", "surface-443", "--constraints", str(path)]
    proc = _child("-m", "virtbetti.cli", *argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    error = json.loads(proc.stderr)
    assert set(error) == {"code", "message", "context"}
    assert error["code"] == "scene-error"
    assert "sys." not in error["message"]  # int() is never given more digits than it takes


def test_a_huge_refused_constraint_value_is_quoted_by_a_bounded_prefix(tmp_path):
    # the message quotes the start of the refused rhs, not all 200,000 zeros
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps([{"lhs": {"w21": 1}, "op": ">=", "rhs": [0] * 200_000}]))
    proc = _child("-m", "virtbetti.cli", "weights", "surface-443", "--constraints", str(path))
    assert proc.returncode == 3, proc.stderr[:200]
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 1024
    error = json.loads(proc.stderr)
    assert error["code"] == "malformed-constraint"
    assert error["message"].startswith("rhs must be an integer, not [0, 0, 0")
    assert error["message"].endswith("...")


def _boundary_chain(n: int) -> str:
    """Stratifications s0..s{n-1} of an open segment, each stratum's
    ``boundary_strata`` naming the next: a scene that nests n deep."""
    strats = {}
    for k in range(n):
        model = {"kind": "open", "pair": "seg"}
        if k + 1 < n:
            model["boundary_strata"] = f"s{k + 1}"
        strats[f"s{k}"] = {"strata": [{"name": "a", "dim": 1, "model": model}]}
    return json.dumps({
        "schema_version": 1,
        "complexes": {"seg": {"vertices": ["a", "b"], "maximal_simplices": [["a", "b"]]}},
        "pairs": {"seg": {"total": "seg", "boundary_maximal": [["a"], ["b"]]}},
        "stratifications": strats,
    })


def test_long_boundary_strata_chains_resolve_or_are_a_scene_error(tmp_path):
    # the links are walked from a list, not by recursion: a chain far longer
    # than the recursion limit resolves, evaluates and round-trips, and the
    # same chain closed into a cycle is refused by name
    path = tmp_path / "scene.json"
    path.write_text(_boundary_chain(2000))
    proc = _child("-m", "virtbetti.cli", "vbetti", "s0", "--json", "--quiet", "--scene", str(path))
    assert proc.returncode == 0, proc.stderr
    # beta(s_k) = P(segment) - beta(s_{k+1}) = 1 - beta(s_{k+1}), and the last
    # link is the segment minus two points, -1
    assert json.loads(proc.stdout) == {"name": "s0", "beta": "2", "coefficients": [2]}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    dump_scene(load_scene(str(path)), str(first))
    dump_scene(load_scene(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(_boundary_chain(2000))
    data["stratifications"]["s1999"]["strata"][0]["model"]["boundary_strata"] = "s0"
    path.write_text(json.dumps(data))
    proc = _child("-m", "virtbetti.cli", "vbetti", "s0", "--json", "--scene", str(path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "code": "scene-error", "context": {},
        "message": "stratifications reference each other in a cycle at 's0'"}


def _diamond_chain(k: int) -> str:
    """Stratifications s0..s{k-1}: two open strata of each s_i name s_{i+1} as
    their ``boundary_strata``, and the last is a point."""
    strats = {f"s{k - 1}": {"strata": [
        {"name": "p", "dim": 0, "model": {"kind": "compact", "complex": "pt"}}]}}
    for i in range(k - 1):
        model = {"kind": "open", "pair": "line", "boundary_strata": f"s{i + 1}"}
        strats[f"s{i}"] = {"strata": [{"name": name, "dim": 1, "model": model}
                                      for name in ("a", "b")]}
    return json.dumps({
        "schema_version": 1,
        "complexes": {"circle": {"vertices": ["a", "b", "c"],
                                 "maximal_simplices": [["a", "b"], ["b", "c"], ["c", "a"]]},
                      "pt": {"vertices": ["a"], "maximal_simplices": [["a"]]}},
        "pairs": {"line": {"total": "circle", "boundary_maximal": [["a"]]}},
        "stratifications": strats,
    })


def test_a_boundary_strata_diamond_chain_is_evaluated_once_per_level(tmp_path):
    # x_i = 2 P(circle) - 2 x_{i+1}: evaluated once per reference, s_0 would
    # cost 2^k evaluations; at 18 levels that took 9 s, and 40 never finished
    path = tmp_path / "scene.json"
    for k, beta in ((16, "-10922 + 21846*t"), (40, "-183251937962 + 366503875926*t")):
        path.write_text(_diamond_chain(k))
        start = time.perf_counter()
        proc = _child("-m", "virtbetti.cli", "vbetti", "s0", "--json", "--quiet",
                      "--scene", str(path))
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["beta"] == beta


def test_a_scene_file_command_does_not_import_the_embedded_scene(tmp_path):
    # each CLI process compiles what it imports; the embedded scene and its
    # models are only for commands without --scene
    path = tmp_path / "scene.json"
    dump_scene(builtin_scene(), str(path))
    proc = _child("-X", "importtime", "-m", "virtbetti.cli", "betti", "torus",
                  "--scene", str(path))
    assert proc.returncode == 0 and proc.stdout == "b: 1 2 1\n"
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "virtbetti.scene" in imported
    assert not imported & {"virtbetti.fixtures", "virtbetti.models"}
