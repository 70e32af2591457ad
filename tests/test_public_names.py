"""Every exported name and every benchmark tracing target resolves.

A stale ``__all__`` entry, or the deletion of a function the benchmark's
span tracer looks up by name, fails here and not only when the benchmark
runs.  The tracer's ``TARGETS`` table is read from ``perfbench/spans.py``;
the tracer itself is not installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import virtbetti

MODULES = sorted(f"virtbetti.{info.name}" for info in pkgutil.iter_modules(virtbetti.__path__))
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
