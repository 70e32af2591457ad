"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they exercise the benchmark, not the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.use_source(run.SRC)


@pytest.mark.parametrize("workload, cli", [
    ("homology", "subprocess"),
    ("mv-cover", "subprocess"),
    ("scene-cli", "subprocess"),
    ("scene-cli", "inprocess"),
])
def test_tiny_workload_passes_every_check(workload, cli, tmp_path):
    jobs = workloads.setup(workload, 3, tmp_path, tiny=True, cli=cli)
    # CLI processes are timed against the reference process, the rest against the kernel
    assert [j.process for j in jobs] == [cli == "subprocess" and j.name.startswith("cli:")
                                         for j in jobs]
    records = run._run_pass(jobs, scaled=True)
    assert [r["error"] for r in records if r["error"]] == []
    assert sum(r["top"] for r in records) == 1
    assert all(r["scaled"] > 0 and r["slowdown"] > 0 for r in records)


def test_corrupted_expected_value_is_counted_as_failed(monkeypatch, capsys):
    real_setup = workloads.setup

    def corrupted(workload, seed, workdir, **kw):
        jobs = real_setup(workload, seed, workdir, tiny=True, cli=kw.get("cli", "subprocess"))
        jobs[0].expected = {**jobs[0].expected, "betti": [1, 2, 2]}
        return jobs

    monkeypatch.setattr(workloads, "setup", corrupted)
    assert run.main(["--workload", "homology", "--seed", "1", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert report["failed_frac"] > 0
    assert set(result["metrics"]) == {m["name"] for m in
                                      json.loads((run.ROOT / "BENCHMARK.json").read_text())
                                      ["end_to_end"]}


def test_tracer_sees_every_lookup_and_restores_it(tmp_path):
    from virtbetti import gf2, simplicial

    jobs = workloads.setup("scene-cli", 3, tmp_path, tiny=True, cli="inprocess")
    tracer = spans.Tracer()
    with tracer:
        assert simplicial.rank is gf2.rank
        assert hasattr(gf2.rank, "__wrapped__")
        records = run._run_pass(jobs, tracer)
    assert not hasattr(gf2.rank, "__wrapped__")
    assert simplicial.rank is gf2.rank
    assert [r["error"] for r in records if r["error"]] == []
    layers = spans.layer_metrics(tracer)
    for name in ("cli.main.self_s", "scene.load.self_s", "weights.solve.self_s",
                 "gf2.rank.self_s", "spectral.build.self_s"):
        assert layers[name] > 0, name
    parents = {span[2] for span in tracer.spans}
    assert parents - {-1}, "nested spans carry parent links"
