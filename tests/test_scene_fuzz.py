"""Mutation fuzzing of scene files.

Each case starts from the built-in scene as ``scene_to_dict`` writes it and
changes one node: it drops the node, swaps its JSON type, duplicates it
(a list element, so a vertex, simplex, piece or stratum twice, or a value
copied from a sibling key), puts in a huge integer, or nests it deeply.
Loading must then either succeed or raise a ``VirtBettiError``; for a
sample, the CLI run on the changed file in a child process must exit 0, 2
or 3, and on an error print exactly one ``{code, message, context}``
object on stderr.  A ``--constraints`` file, which has its own parser, is
fuzzed the same way from a valid constraints list.  The runs are
derandomized, so CI sees the same cases.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import virtbetti
from virtbetti.errors import VirtBettiError
from virtbetti.fixtures import builtin_scene
from virtbetti.scene import scene_from_dict, scene_to_dict
from virtbetti.weights import LinearConstraint

BASE = json.dumps(scene_to_dict(builtin_scene()))

VALUES = [None, True, 0, -1, 1.5, "x", "", [], {}, [1], ["x", "y"], {"a": 1}, {"op": "empty"}]
HUGE = [10**6, 2**63, 10**30, -(10**30)]
MUTATIONS = ["drop", "swap", "duplicate", "huge", "nest"]


def _nest(value, depth: int, kind: str):
    for _ in range(depth):
        value = [value] if kind == "list" else {"op": "union", "left": value,
                                               "right": {"op": "empty"}}
    return value


def _keys(node):
    return sorted(node) if isinstance(node, dict) else range(len(node))


@st.composite
def mutated(draw, base: str, depths=(20, 300, 3000)):
    """The JSON document ``base`` with one node below the top changed, and
    what was done."""
    data = json.loads(base)
    parent, key = data, draw(st.sampled_from(_keys(data)))
    # walk down, stopping at each level with probability 1/4
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.integers(0, 3)):
        parent = parent[key]
        key = draw(st.sampled_from(_keys(parent)))
    mutation = draw(st.sampled_from(MUTATIONS))
    node = parent[key]
    if mutation == "drop":
        del parent[key]
    elif mutation == "swap":
        parent[key] = draw(st.sampled_from([v for v in VALUES if type(v) is not type(node)]))
    elif mutation == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(node)))
    elif mutation == "duplicate":
        parent[key] = json.loads(json.dumps(parent[draw(st.sampled_from(sorted(parent)))]))
    elif mutation == "huge":
        parent[key] = draw(st.sampled_from(HUGE))
    else:
        parent[key] = _nest(node, draw(st.sampled_from(depths)),
                            draw(st.sampled_from(["list", "union"])))
    return data, mutation


FUZZ = settings(max_examples=300, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(mutated(BASE))
def test_one_changed_node_loads_or_is_a_structured_error(case):
    data, _ = case
    try:
        scene_from_dict(data)
    except VirtBettiError:
        pass


COMMANDS = [("betti", "torus"), ("vbetti", "surface-443"), ("vbetti", "figure-eight-x"),
            ("mvss", "two-circles"), ("weights", "surface-443")]


def _run_cli(argv) -> None:
    """Run the CLI in a child process: exit 0, 2 or 3, and on an error one
    ``{code, message, context}`` object on stderr."""
    package_root = os.path.dirname(os.path.dirname(virtbetti.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "virtbetti.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode in (0, 2, 3), proc.stderr
    if proc.returncode:
        error = json.loads(proc.stderr)
        assert sorted(error) == ["code", "context", "message"]


@settings(FUZZ, max_examples=15)
@given(mutated(BASE, depths=(20, 300)), st.sampled_from(COMMANDS))
def test_cli_on_a_changed_scene_exits_cleanly(tmp_path_factory, case, command):
    data, _ = case
    path = tmp_path_factory.mktemp("fuzz") / "scene.json"
    path.write_text(json.dumps(data))
    _run_cli([*command, "--scene", str(path)])


# constraints on the built-in surface-443 weight system (top degree 2): each
# comparison, both spellings of an entry name, with and without a note
CONSTRAINTS = json.dumps([
    {"lhs": {"w21": 1, "w1_0": -2}, "op": ">=", "rhs": 3, "note": "classes independent"},
    {"lhs": {"w11": 1}, "op": "<=", "rhs": 4},
    {"lhs": {"w00": 1}, "op": "==", "rhs": 1, "note": ""},
])


@FUZZ
@given(mutated(CONSTRAINTS))
def test_one_changed_constraint_node_parses_or_is_a_structured_error(case):
    data, _ = case
    for item in data:
        try:
            LinearConstraint.from_dict(item)
        except VirtBettiError:
            pass


@settings(FUZZ, max_examples=15)
@given(mutated(CONSTRAINTS, depths=(20, 300)))
def test_cli_on_changed_constraints_exits_cleanly(tmp_path_factory, case):
    data, _ = case
    path = tmp_path_factory.mktemp("fuzz") / "constraints.json"
    path.write_text(json.dumps(data))
    _run_cli(["weights", "surface-443", "--constraints", str(path)])
