"""Construction errors name vertices, never positions.

Inside the engine a simplex is a tuple of vertex positions; every error
turns it back into vertex names.  Each hostile input below gives the same
``{code, message, context}`` as when simplices were tuples of names: the
literals are what that engine gave, and the in-process cases are also run
through the name-based oracle.  A complex is built from maximal simplices
only, as a scene file lists them, so every construction case is run through
``python -m virtbetti.cli`` in a child process too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
import simplicial_oracle

import virtbetti
from virtbetti.cover import Arrangement
from virtbetti.errors import VirtBettiError
from virtbetti.simplicial import SimplicialComplex, Subcomplex

BIG = [f"x{i}" for i in range(20)]
MID = BIG[:17]
ABCD = (["a", "b", "c", "d"], [["a", "b", "c"], ["c", "d"]])

# case: (constructor arguments, error code, message, context)
CASES = {
    "unknown-vertex": ((["a", "b"], [["a", "z"]]), "unknown-vertex",
                       "unknown vertex 'z'", {"vertex": "'z'"}),
    "duplicate-vertex": ((["a", "b", "a"], [["a", "b"]]), "unknown-vertex",
                         "duplicate vertex 'a' in vertex list", {"vertex": "'a'"}),
    "oversized-simplex": ((BIG, [BIG]), "too-many-simplices",
                          "face closure exceeds the supported size", {"limit": 100000}),
    "over-the-cap": ((MID, [MID]), "too-many-simplices",
                     "131071 simplices exceed the supported size", {"limit": 100000}),
}

NOT_A_COVER = ("not-a-cover", "pieces do not cover the total complex", {
    "missing": ["('a', 'b', 'c')", "('a', 'c')", "('b', 'c')", "('c',)", "('c', 'd')"],
    "missing_count": 6,
})
STRAY = ("unknown-vertex", "simplex ('a', 'c') does not belong to the parent complex",
         {"simplex": "('a', 'c')"})


def error_of(build) -> dict:
    with pytest.raises(VirtBettiError) as info:
        build()
    return info.value.to_dict()


def expected(code, message, context) -> dict:
    return {"code": code, "message": message, "context": context}


@pytest.mark.parametrize("case", sorted(CASES))
def test_construction_errors_name_vertices(case):
    args, *want = CASES[case]
    for cls in (SimplicialComplex, simplicial_oracle.NameComplex):
        assert error_of(lambda: cls.from_maximal(*args)) == expected(*want)


def test_the_first_unknown_vertex_of_a_batch_is_named():
    # a batch is normalized in one pass: the error names the first unknown
    # vertex in input order, in the second simplex, not the one after it
    batch = [["a", "b"], ["c", "z"], ["y"]]
    want = expected("unknown-vertex", "unknown vertex 'z'", {"vertex": "'z'"})
    for cls in (SimplicialComplex, simplicial_oracle.NameComplex):
        k = cls.from_maximal(*ABCD)
        for build in (lambda: cls.from_maximal(ABCD[0], batch),
                      lambda: k.subcomplex(maximal=batch)):
            assert error_of(build) == want
    k = SimplicialComplex.from_maximal(*ABCD)
    assert tuple(batch[0]) in k.simplices
    assert not {tuple(s) for s in batch[1:]} & k.simplices


def test_stray_subcomplex_and_uncovered_complex_errors_name_vertices():
    path = (["a", "b", "c"], [["a", "b"], ["b", "c"]])
    k = SimplicialComplex.from_maximal(*path)
    assert error_of(lambda: k.subcomplex(maximal=[["c", "a"]])) == expected(*STRAY)
    # built directly, a subcomplex is checked the same way
    assert error_of(lambda: Subcomplex(k, frozenset({k.sort_key(("a", "c"))}))) == expected(*STRAY)
    ref = simplicial_oracle.NameComplex.from_maximal(*path)
    assert error_of(lambda: ref.subcomplex(maximal=[["c", "a"]])) == expected(*STRAY)
    total = SimplicialComplex.from_maximal(*ABCD)
    piece = total.subcomplex(maximal=[["a", "b"]])
    assert error_of(lambda: Arrangement(total, (("X", piece),))) == expected(*NOT_A_COVER)


def test_a_stray_maximal_cell_names_its_least_stray_face():
    # every vertex is known and the cell is stray: the error names its face
    # ('a', 'b'), not the cell, as a check of the whole closure does
    parent = (["a", "b", "c"], [["b", "c"], ["a"]])
    want = expected("unknown-vertex", "simplex ('a', 'b') does not belong to the parent complex",
                    {"simplex": "('a', 'b')"})
    for cls in (SimplicialComplex, simplicial_oracle.NameComplex):
        k = cls.from_maximal(*parent)
        assert error_of(lambda: k.subcomplex(maximal=[["a", "b", "c"]])) == want


def run_cli(tmp_path, scene: dict, *argv: str) -> tuple[int, str]:
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"schema_version": 1, **scene}))
    package_root = os.path.dirname(os.path.dirname(virtbetti.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "virtbetti.cli", *argv, "--scene", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.stdout == ""
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_construction_errors_name_vertices(tmp_path, case):
    (vertices, maximal), *want = CASES[case]
    scene = {"complexes": {"k": {"vertices": vertices, "maximal_simplices": maximal}}}
    code, stderr = run_cli(tmp_path, scene, "betti", "k")
    assert code == 3
    assert json.loads(stderr) == expected(*want)


def test_cli_stray_boundary_and_uncovered_complex_errors_name_vertices(tmp_path):
    vertices, maximal = ABCD
    complexes = {"k": {"vertices": vertices, "maximal_simplices": maximal}}
    pieces = [{"name": "X", "maximal_simplices": [["a", "b"]]}]
    code, stderr = run_cli(tmp_path, {"complexes": complexes, "arrangements": {
        "arr": {"total": "k", "pieces": pieces}}}, "mvss", "arr")
    assert code == 3
    assert json.loads(stderr) == expected(*NOT_A_COVER)
    complexes["path"] = {"vertices": ["a", "b", "c"], "maximal_simplices": [["a", "b"], ["b", "c"]]}
    code, stderr = run_cli(tmp_path, {"complexes": complexes, "pairs": {
        "p": {"total": "path", "boundary_maximal": [["c", "a"]]}}}, "betti", "k")
    assert code == 3
    _, message, context = STRAY
    assert json.loads(stderr) == expected(
        "scene-error", f"pair 'p', boundary_maximal: {message}", context)
