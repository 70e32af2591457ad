"""Span tracing from outside the program.

The tracer replaces selected virtbetti functions and methods with wrappers
that record one span per call: name, job id, parent span, start and end.
Each wrapper is installed at every attribute through which callers look the
function up (``gf2.rank`` and ``simplicial.rank`` are the same function
object, imported under two names), so no call escapes.  Self time of a
span is its duration minus the time its child spans cover.  Nothing under
``src/`` is changed; uninstalling restores every attribute.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from itertools import combinations
from math import comb


def _count_rank(counts, args, kwargs, result):
    m = args[0]
    counts["gf2.rank.cells"] += m.rows * m.cols
    counts["gf2.rank.rows"] += m.rows
    counts["gf2.rank.rank"] += result


def _count_from_maximal(counts, args, kwargs, result):
    counts["simplicial.simplices"] += result.n_simplices()


def _count_build(counts, args, kwargs, result):
    ss = args[0]
    total = ss.arrangement.total
    m = len(ss.arrangement.pieces)
    top_n = total.dim + m - 1
    counts["spectral.basis_dim"] += sum(ss.dim_total(n) for n in range(top_n + 1))
    nonempty = 0
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            if ss.intersection_complex(subset):
                nonempty += 1
    counts["spectral.nerve_nonempty"] += nonempty
    counts["spectral.nerve_subsets"] += 2 ** m - 1


def _count_solve(counts, args, kwargs, result):
    inp = args[0]
    candidates = 1
    for i, b in enumerate(inp.b):
        candidates *= comb(b + i, i)
    counts["weights.candidates"] += candidates
    counts["weights.solutions"] += len(result)


def _count_dump(counts, args, kwargs, result):
    counts["scene.bytes"] += os.path.getsize(args[1])


# (span name, module, attribute path, counter).  The attribute path names a
# module-level function or a class attribute ("Class.method").
TARGETS = (
    ("gf2.rank", "virtbetti.gf2", "rank", _count_rank),
    ("gf2.span_dim", "virtbetti.gf2", "span_dim", None),
    ("gf2.kernel_vectors", "virtbetti.gf2", "kernel_vectors", None),
    ("simplicial.from_maximal", "virtbetti.simplicial", "SimplicialComplex.from_maximal",
     _count_from_maximal),
    ("simplicial.boundary_matrix", "virtbetti.simplicial",
     "SimplicialComplex.boundary_matrix", None),
    ("simplicial.betti_mod2", "virtbetti.simplicial", "SimplicialComplex.betti_mod2", None),
    ("simplicial.relative_coboundary_matrix", "virtbetti.simplicial",
     "PairSpace.relative_coboundary_matrix", None),
    ("simplicial.betti_compact_supports", "virtbetti.simplicial",
     "PairSpace.betti_compact_supports", None),
    ("simplicial.product_complex", "virtbetti.simplicial", "product_complex", None),
    ("spectral.build", "virtbetti.spectral", "MVSpectralSequence.__init__", _count_build),
    ("spectral.page", "virtbetti.spectral", "MVSpectralSequence.page", None),
    ("spectral.entry_dim", "virtbetti.spectral", "MVSpectralSequence.entry_dim", None),
    ("spectral.d_rank", "virtbetti.spectral", "MVSpectralSequence.d_rank", None),
    ("spectral.stabilization_certificate", "virtbetti.spectral",
     "MVSpectralSequence.stabilization_certificate", None),
    ("spectral.converged_betti", "virtbetti.spectral",
     "MVSpectralSequence.converged_betti", None),
    ("spectral.filtration_profile", "virtbetti.spectral",
     "MVSpectralSequence.filtration_profile", None),
    ("weights.solve", "virtbetti.weights", "solve_weight_system", _count_solve),
    ("weights.constraint_filter", "virtbetti.weights", "constraint_filter", None),
    ("scene.load", "virtbetti.scene", "load_scene", None),
    ("scene.dump", "virtbetti.scene", "dump_scene", _count_dump),
    ("scissor.evaluate_beta", "virtbetti.scissor", "evaluate_beta", None),
    ("scissor.evaluate_chi_c", "virtbetti.scissor", "evaluate_chi_c", None),
    ("stratified.beta_of_stratified", "virtbetti.stratified", "beta_of_stratified", None),
    ("stratified.inclusion_exclusion", "virtbetti.stratified", "inclusion_exclusion", None),
    ("fixtures.builtin_scene", "virtbetti.fixtures", "builtin_scene", None),
    ("fixtures.run_fixture", "virtbetti.fixtures", "run_fixture", None),
    ("cli.main", "virtbetti.cli", "main", None),
)


class Tracer:
    """Spans and counters of one traced pass over a job list."""

    def __init__(self):
        self.spans: list[list] = []  # [name, job, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, self.job, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        namespaces = [
            module for key, module in list(sys.modules.items())
            if key == "virtbetti" or key.startswith("virtbetti.")
        ]
        for name, module_name, path, counter in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, job, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, job, parent, start, end) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    times = tracer.layer_times()
    counts = tracer.counts

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    def self_s(name):
        return times.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {
        "gf2.rank.calls": calls("gf2.rank"),
        "gf2.rank.self_s": self_s("gf2.rank"),
        "gf2.rank.cells": counts["gf2.rank.cells"],
        "gf2.rank.yield": ratio("gf2.rank.rank", "gf2.rank.rows"),
        "gf2.span_dim.calls": calls("gf2.span_dim"),
        "gf2.span_dim.self_s": self_s("gf2.span_dim"),
        "gf2.kernel_vectors.calls": calls("gf2.kernel_vectors"),
        "gf2.kernel_vectors.self_s": self_s("gf2.kernel_vectors"),
        "simplicial.from_maximal.self_s": self_s("simplicial.from_maximal"),
        "simplicial.simplices": counts["simplicial.simplices"],
        "simplicial.boundary_matrix.self_s": self_s("simplicial.boundary_matrix"),
        "simplicial.relative_coboundary_matrix.self_s":
            self_s("simplicial.relative_coboundary_matrix"),
        "simplicial.betti_mod2.self_s": self_s("simplicial.betti_mod2"),
        "simplicial.betti_compact_supports.self_s":
            self_s("simplicial.betti_compact_supports"),
        "spectral.build.self_s": self_s("spectral.build"),
        "spectral.basis_dim": counts["spectral.basis_dim"],
        "spectral.nerve_yield": ratio("spectral.nerve_nonempty", "spectral.nerve_subsets"),
        "spectral.page.self_s": self_s("spectral.page"),
        "spectral.entry_dim.calls": calls("spectral.entry_dim"),
        "spectral.d_rank.calls": calls("spectral.d_rank"),
        "spectral.d_rank.self_s": self_s("spectral.d_rank"),
        "spectral.stabilization_certificate.self_s":
            self_s("spectral.stabilization_certificate"),
        "spectral.converged_betti.self_s": self_s("spectral.converged_betti"),
        "weights.solve.self_s": self_s("weights.solve"),
        "weights.candidates": counts["weights.candidates"],
        "weights.solutions": counts["weights.solutions"],
        "weights.yield": ratio("weights.solutions", "weights.candidates"),
        "scene.load.self_s": self_s("scene.load"),
        "scene.dump.self_s": self_s("scene.dump"),
        "scene.bytes": counts["scene.bytes"],
        "scissor.evaluate_beta.self_s": self_s("scissor.evaluate_beta"),
        "scissor.evaluate_chi_c.self_s": self_s("scissor.evaluate_chi_c"),
        "stratified.beta_of_stratified.self_s": self_s("stratified.beta_of_stratified"),
        "stratified.inclusion_exclusion.self_s": self_s("stratified.inclusion_exclusion"),
        "fixtures.builtin_scene.self_s": self_s("fixtures.builtin_scene"),
        "fixtures.run_fixture.self_s": self_s("fixtures.run_fixture"),
        "cli.main.self_s": self_s("cli.main"),
    }
    return out
