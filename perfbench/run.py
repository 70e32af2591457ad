"""The virtbetti benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 40 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Workloads: homology, mv-cover, scene-cli (see perfbench/README.md).  Each
run repeats the workload's fixed job list in one process, one job at a
time (a closed loop with one client), for about ``--seconds`` seconds and
checks every answer.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, untraced.
Their times are scaled to a reference speed measured around and during each
job (``speed.py``), because the shared host this runs on changes speed.
``--trace 1`` alternates untraced and traced passes over the same jobs and
reports the per-layer metrics, including the tracing overhead.  In traced
runs scene-cli calls ``cli.main`` in this process instead of starting one
process per command, so that the CLI's layers are visible.

Standard output ends with a human-readable summary, one line holding the
full report as JSON (seed, Python version, CPU count, git commit, source
line count, per-job medians, failures) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "virtbetti"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5

_SETUP_PROBE = """
import sys, time
from pathlib import Path
bench, src, workload, seed, workdir = sys.argv[1:6]
sys.path.insert(0, bench)
import speed, workloads
workloads.use_source(Path(src))
meter = speed.Meter()
meter.start()
start = time.perf_counter()
workloads.setup(workload, int(seed), Path(workdir))
seconds = time.perf_counter() - start
meter.stop()
print(meter.scale(seconds))
"""

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import virtbetti
print(time.perf_counter() - start)
"""


def _probe(code: str, *args: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _source_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted(PACKAGE.glob("*.py")))


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def _run_pass(jobs, tracer=None, scaled=False) -> list[dict]:
    """Run every job once, in order; time ``run`` and check the answer.

    With ``scaled``, a ``speed`` meter runs around each job and each record
    also holds the job's time at reference speed.
    """
    records = []
    after = None  # the last reference process's time, when it ran just before
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        meter = None
        if scaled:
            meter = speed.ProcessMeter(after) if job.process else speed.Meter()
            meter.start()
        error = None
        start = time.perf_counter()
        try:
            raw = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if meter is not None:
            meter.stop()  # before observe: slices from here on are not in the job's time
        if error is None:
            try:
                observed = job.observe(raw)
                if observed != job.expected:
                    error = f"expected {job.expected!r}, got {observed!r}"
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        record = {"job": job.name, "seconds": seconds, "error": error, "top": job.top}
        if meter is not None:
            record["scaled"] = meter.scale(seconds)
            record["slowdown"] = meter.slowdown()
        after = meter.after if isinstance(meter, speed.ProcessMeter) else None
        records.append(record)
    return records


def _loop(seconds: float, step) -> list:
    """Call ``step`` until the next call would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def _wall(records, key="seconds") -> float:
    return sum(r[key] for r in records)


def _end_to_end(args, workdir: Path, report: dict) -> tuple[dict, list]:
    samples = []

    def probe_setup():
        probe_dir = workdir / f"setup-{len(samples)}"
        probe_dir.mkdir()
        samples.append(_probe(_SETUP_PROBE, str(BENCH_DIR), str(SRC), args.workload,
                              str(args.seed), str(probe_dir)))

    def step():
        nonlocal jobs
        # set-up samples are spread over the run, one before each pass
        if len(samples) < SETUP_SAMPLES:
            probe_setup()
        # each pass after the first runs a fresh relabelling drawn from the seed
        # (passes per run stay far below 1000): the elimination order a labelling
        # induces moves a job's time by up to 20%, so a run's medians average
        # over orders instead of resting on one
        index = next(pass_index)
        if index:
            jobs = workloads.setup(args.workload, args.seed * 1000 + index, workdir)
        return _run_pass(jobs, scaled=True)

    jobs = _setup(args, workdir, "subprocess")
    pass_index = itertools.count()
    passes = _loop(args.seconds, step)
    while len(samples) < SETUP_SAMPLES:
        probe_setup()

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "scene-cli":
        rss_kib = max(rss_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(_wall(p, "scaled") for p in passes),
        "job_p50_s": statistics.median(
            statistics.median(p[j]["scaled"] for p in passes) for j in range(len(jobs))),
        "slowest_job_s": statistics.median(r["scaled"] for p in passes for r in p if r["top"]),
        "peak_rss_mib": rss_kib / 1024,
    }
    report["setup_samples_s"] = samples
    report["pass_wall_s"] = [_wall(p) for p in passes]
    report["pass_scaled_wall_s"] = [_wall(p, "scaled") for p in passes]
    report["slowdown_median"] = statistics.median(r["slowdown"] for p in passes for r in p)
    return metrics, passes


def _per_layer(args, workdir: Path, report: dict) -> tuple[dict, list]:
    imports = [_probe(_IMPORT_PROBE, str(SRC)) for _ in range(IMPORT_SAMPLES)]
    jobs = _setup(args, workdir, "inprocess")

    def step():
        plain = _run_pass(jobs)
        tracer = spans.Tracer()
        with tracer:
            traced = _run_pass(jobs, tracer)
        return plain, traced, spans.layer_metrics(tracer), tracer.layer_times()

    rounds = _loop(args.seconds, step)
    per_pass = [layers for _, _, layers, _ in rounds]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(_wall(t) for _, t, _, _ in rounds)
    plain_wall = statistics.median(_wall(p) for p, _, _, _ in rounds)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    metrics["cli.import_s"] = statistics.median(imports)
    report["spans_last_pass"] = rounds[-1][3]
    report["untraced_wall_s"] = plain_wall
    passes = [r for plain, traced, _, _ in rounds for r in (plain, traced)]
    return metrics, passes


def _setup(args, workdir: Path, cli: str):
    workloads.use_source(SRC)
    jobs = workloads.setup(args.workload, args.seed, workdir, cli=cli)
    import virtbetti

    loaded = Path(virtbetti.__file__).resolve().parent
    if loaded != PACKAGE.resolve():
        raise RuntimeError(f"imported virtbetti from {loaded}, not {PACKAGE}")
    return jobs


def _job_summary(passes) -> dict:
    by_job: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            by_job.setdefault(r["job"], []).append(r["seconds"])
    return {name: statistics.median(times) for name, times in by_job.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a virtbetti checkout; {PACKAGE} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }
    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, passes = measure(args, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    metrics["repo.source_lines"] = _source_lines()

    records = [r for p in passes for r in p]
    failures = [r for r in records if r["error"]]
    attempted, failed = len(records), len(failures)
    report.update({
        "passes": len(passes),
        "jobs_per_pass": len(passes[0]),
        "job_median_s": _job_summary(passes),
        "failed_frac": failed / attempted,
        "failures": [f"{r['job']}: {r['error']}" for r in failures[:10]],
        "metrics": metrics,
    })

    print(f"virtbetti benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} passes of {len(passes[0])} jobs")
    result_metrics = {}
    for m in wanted:
        value = metrics[m["name"]]
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<6} ({m['better']} is better)")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} {'1':<6} "
          f"({failed} of {attempted} jobs failed; lower is better)")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
