"""Every exported name and every benchmark tracing target resolves.

A stale ``__all__`` entry, or the deletion of a function the benchmark's
span tracer looks up by name, fails here and not only when the benchmark
runs.  The tracer's ``TARGETS`` table is read from ``perfbench/spans.py``;
the tracer itself is not installed.

The package namespace is lazy: what an import loads is checked in a fresh
interpreter, since this one has loaded every module already.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest
from test_cli import _child

import virtbetti
from virtbetti import simplicial
from virtbetti.fixtures import builtin_scene
from virtbetti.scene import dump_scene

MODULES = ["virtbetti"] + sorted(
    f"virtbetti.{info.name}" for info in pkgutil.iter_modules(virtbetti.__path__))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("target", _tracing_targets(), ids=lambda target: target[0])
def test_every_tracing_target_resolves(target):
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# home module: every name the package exported when it imported each module eagerly
EXPORTS = {
    "errors": ["VirtBettiError", "Verdict"],
    "gf2": ["GF2Matrix", "rank"],
    "polynomial": ["IntPolynomial", "NEG_INFINITY", "parse_polynomial"],
    "simplicial": ["BettiVector", "PairSpace", "SimplicialComplex", "Subcomplex",
                   "product_complex"],
    "scissor": ["Atom", "Blowup", "ClosedDifference", "DisjointUnion", "Empty",
                "Product", "check_blowup_relation", "degree_report", "evaluate_beta",
                "evaluate_chi_c"],
    "stratified": ["CompactModel", "DeclaredBeta", "OpenModel", "StratifiedSpec",
                   "StratumRecord", "beta_of_stratified", "beta_of_stratum",
                   "inclusion_exclusion", "refinement_check"],
    "cover": ["Arrangement"],
    "spectral": ["MVSpectralSequence", "row_alternating_sums"],
    "triangle": ["WeightArray", "WeightSystemInput"],
    "weights": ["LinearConstraint", "constraint_filter", "solve_weight_system"],
    "scene": ["Scene", "load_scene", "dump_scene", "scene_from_dict", "scene_to_dict"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
LOADED = ("print(json.dumps(sorted(name for name in sys.modules"
          " if name.split('.')[0] == 'virtbetti')))")


def _child_json(code: str, *args: str):
    """What ``code`` prints as JSON in a fresh interpreter on this very package."""
    proc = _child("-c", "import json, sys\n" + code, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    assert _child_json("import virtbetti\n" + LOADED) == ["virtbetti"]


def test_importing_simplicial_loads_only_what_it_uses():
    assert _child_json("import virtbetti.simplicial\n" + LOADED) == [
        "virtbetti", "virtbetti.errors", "virtbetti.gf2", "virtbetti.simplicial"]


@pytest.mark.parametrize("module", ["cover", "spectral", "models"])
def test_importing_cover_spectral_or_models_loads_no_polynomial(module):
    assert "virtbetti.polynomial" not in _child_json(f"import virtbetti.{module}\n" + LOADED)


def test_a_poincare_polynomial_after_importing_only_simplicial():
    code = """
from virtbetti.simplicial import SimplicialComplex, product_complex
circle = SimplicialComplex.from_maximal("abc", ["ab", "bc", "ca"])
print(json.dumps(product_complex(circle, circle).poincare_polynomial().to_text()))
"""
    assert _child_json(code) == "1 + 2*t + t^2"


def test_a_virtual_betti_after_importing_only_cover():
    # two circles meeting in one vertex: 2 (1 + t) - 1
    code = """
from virtbetti.cover import Arrangement
from virtbetti.simplicial import SimplicialComplex
total = SimplicialComplex.from_maximal("abcde", ["ab", "bc", "ca", "ad", "de", "ea"])
pieces = (("left", total.subcomplex(maximal=["ab", "bc", "ca"])),
          ("right", total.subcomplex(maximal=["ad", "de", "ea"])))
print(json.dumps(Arrangement(total, pieces).virtual_betti().to_text()))
"""
    assert _child_json(code) == "1 + 2*t"


def _engines_loaded(code: str, *args: str) -> set[str]:
    """Which of the two engine modules ``code`` loads in a fresh interpreter."""
    loaded = _child_json(code + "\n" + LOADED, *args)
    return {name for name in ("spectral", "weights") if f"virtbetti.{name}" in loaded}


def _cli_engines(argv: list[str]) -> set[str]:
    """Which engine modules ``virtbetti argv`` loads in a fresh interpreter."""
    code = """
import contextlib, io
from virtbetti.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(json.loads(sys.argv[1])) == 0
"""
    return _engines_loaded(code, json.dumps(argv))


def test_the_spectral_sequence_does_not_load_the_weight_search():
    assert _engines_loaded("import virtbetti.spectral") == {"spectral"}


def test_the_weight_search_does_not_load_the_spectral_sequence():
    assert _engines_loaded("import virtbetti.weights") == {"weights"}


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    dump_scene(builtin_scene(), str(path))
    return str(path)


def test_loading_a_scene_file_loads_no_engine(scene_file):
    code = "from virtbetti.scene import load_scene\nload_scene(sys.argv[1])"
    assert _engines_loaded(code, scene_file) == set()


def _case_id(value) -> str:
    return "-".join(value if isinstance(value, list) else sorted(value)) or "none"


@pytest.mark.parametrize("argv, engines", [
    (["betti", "torus"], set()),
    (["vbetti", "tangent-circles"], set()),  # an arrangement
    (["vbetti", "ellipses", "--chi-c"], set()),  # an expression
    (["vbetti", "circle-as-two"], set()),  # a stratification
    (["mvss", "tangent-circles"], {"spectral"}),
    (["weights", "torus"], {"weights"}),
], ids=_case_id)
def test_a_scene_file_command_loads_only_the_engine_it_runs(scene_file, argv, engines):
    assert _cli_engines(argv + ["--scene", scene_file]) == engines


@pytest.mark.parametrize("argv, engines", [
    (["betti", "surface-443"], set()),
    (["vbetti", "ellipses"], set()),
    (["fixtures"], {"spectral", "weights"}),
], ids=_case_id)
def test_an_embedded_scene_command_loads_only_the_engine_it_runs(argv, engines):
    assert _cli_engines(argv) == engines


def test_every_exported_name_is_its_home_modules_object():
    code = """
import importlib, virtbetti
exports = json.loads(sys.argv[1])
print(json.dumps([name for module, names in exports.items() for name in names
                  if name not in virtbetti.__all__ or name not in dir(virtbetti)
                  or getattr(virtbetti, name)
                  is not getattr(importlib.import_module(f"virtbetti.{module}"), name)]))
"""
    assert _child_json(code, json.dumps(EXPORTS)) == []
    assert virtbetti.__all__ == NAMES  # and nothing more


def test_star_import_binds_every_exported_name():
    code = "from virtbetti import *\nprint(json.dumps(sorted(set(json.loads(sys.argv[1])) - set(globals()))))"
    assert _child_json(code, json.dumps(NAMES)) == []


def test_an_unknown_name_raises_attribute_error():
    proc = _child("-c", "import virtbetti\nvirtbetti.no_such_name")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "AttributeError: module 'virtbetti' has no attribute 'no_such_name'")
    assert not hasattr(virtbetti, "no_such_name")


def test_the_package_name_is_whatever_its_home_module_holds(monkeypatch):
    # nothing is cached in the namespace: a patched or traced function shows through
    assert virtbetti.product_complex is simplicial.product_complex
    replacement = object()
    monkeypatch.setattr(simplicial, "product_complex", replacement)
    assert virtbetti.product_complex is replacement
