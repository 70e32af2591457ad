"""Seeded inputs, job lists and independent oracles for the three workloads.

A seed fixes everything the program receives: vertex names, vertex order,
the order of maximal simplices and cover pieces, the scene file's
expressions and the planted weight arrays.  It never changes a size; only
the elimination order a labelling induces moves the work a little.

Each job's expected answer comes from topology known in closed form, not
from the code under test: Betti numbers of tori, spheres and their
products (Kunneth), compact-support Betti numbers of punctured spheres and
cylinders, Euler characteristics from simplex counts, the pages of band
covers of a torus and the published pages of the surface-443 cover, and
polynomial arithmetic done here for scene expressions.

Nothing here imports virtbetti at module level: ``setup`` does, so that
its time counts towards ``setup_s``.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("homology", "mv-cover", "scene-cli")


@dataclass
class Job:
    """One unit of work: ``run`` is timed, ``observe`` turns its result
    into plain facts outside the timed region, and the job passes when the
    facts equal ``expected``."""

    name: str
    run: Callable[[], Any]
    observe: Callable[[Any], Any]
    expected: Any
    top: bool = False  # the workload's largest job
    process: bool = False  # starts a process; timed with speed.ProcessMeter


def use_source(src: Path) -> None:
    """Make ``import virtbetti`` load the package under ``src``."""
    path = str(src)
    if path not in sys.path:
        sys.path.insert(0, path)


# -- input generation (pure Python, no virtbetti) ------------------------------


def _relabel(rng: random.Random, vertices, maximal, prefix: str):
    """Fresh vertex names, shuffled vertex order and shuffled simplex lists."""
    codes = list(range(len(vertices)))
    rng.shuffle(codes)
    name = {v: f"{prefix}{c}" for v, c in zip(vertices, codes)}
    order = [name[v] for v in vertices]
    rng.shuffle(order)
    simplices = []
    for s in maximal:
        t = [name[v] for v in s]
        rng.shuffle(t)
        simplices.append(t)
    rng.shuffle(simplices)
    return order, simplices, name


def _torus_cells(n: int):
    """Vertices and triangles of the n x n diagonal grid torus."""
    vertices = [(i, j) for i in range(n) for j in range(n)]
    v = lambda i, j: (i % n, j % n)
    tris = []
    for i in range(n):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return vertices, tris


def _band_rows(n: int, k: int, shift: int):
    """Grid rows of each of k closed bands around an n-row torus."""
    cuts = [round(b * n / k) for b in range(k + 1)]
    return [[(i + shift) % n for i in range(cuts[b], cuts[b + 1])] for b in range(k)]


def _sphere_cells(n: int):
    """S^n as the boundary of the (n+1)-simplex."""
    vertices = list(range(n + 2))
    return vertices, list(combinations(vertices, n + 1))


def _cycle_cells(n: int):
    vertices = list(range(n))
    return vertices, [(i, (i + 1) % n) for i in range(n)]


def _torus7_cells():
    vertices = list(range(7))
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 2) % 7, (i + 3) % 7))
    return vertices, tris


_RP2_TRIS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
]


def _sphere_betti(n: int) -> list[int]:
    """Betti numbers of S^n for n >= 1."""
    return [1] + [0] * (n - 1) + [1]


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _euler(betti) -> int:
    return sum((-1) ** i * b for i, b in enumerate(betti))


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim(x + sign * y for x, y in zip(a, b))


# -- homology ------------------------------------------------------------------


def _homology_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    from virtbetti import simplicial

    def build(vertices, maximal):
        # looked up on each call, so that a tracer's wrapper is seen
        return simplicial.SimplicialComplex.from_maximal(vertices, maximal)

    def observe_complex(result):
        k, b = result
        counts = k.simplex_counts()
        return {
            "betti": list(b),
            "euler_from_counts": _euler(counts),
            "simplices": k.n_simplices(),
        }

    def complex_job(name, cells, betti, simplices, top=False):
        verts, maximal, _ = _relabel(rng, *cells, prefix="x")

        def run():
            k = build(verts, maximal)
            return k, k.betti_mod2()

        expected = {"betti": betti, "euler_from_counts": _euler(betti), "simplices": simplices}
        return Job(name, run, observe_complex, expected, top)

    def product_job(name, cells_a, betti_a, cells_b, betti_b):
        va, ma, _ = _relabel(rng, *cells_a, prefix="a")
        vb, mb, _ = _relabel(rng, *cells_b, prefix="b")
        betti = _convolve(betti_a, betti_b)

        def run():
            k = simplicial.product_complex(build(va, ma), build(vb, mb))
            return k, k.betti_mod2()

        def observe(result):
            facts = observe_complex(result)
            del facts["simplices"]
            return facts

        return Job(name, run, observe, {"betti": betti, "euler_from_counts": _euler(betti)},
                   top=True)

    def pair_job(name, cells, boundary, betti_c):
        verts, maximal, names = _relabel(rng, *cells, prefix="y")
        boundary = [[names[v] for v in s] for s in boundary]

        def run():
            k = build(verts, maximal)
            pair = simplicial.PairSpace(k, k.subcomplex(maximal=boundary))
            return pair, pair.betti_compact_supports()

        def observe(result):
            pair, b = result
            return {"betti_c": list(b), "euler_c_from_counts": pair.euler_compact_supports()}

        return Job(name, run, observe, {"betti_c": betti_c, "euler_c_from_counts": _euler(betti_c)})

    tori, spheres = ((4, 6), (2, 3)) if tiny else ((10, 16, 24), (8, 9, 10))
    jobs = [
        complex_job(f"torus-{n}x{n}", _torus_cells(n), [1, 2, 1], 6 * n * n)
        for n in tori
    ]
    jobs += [
        complex_job(f"sphere-{n}", _sphere_cells(n), _sphere_betti(n), 2 ** (n + 2) - 2)
        for n in spheres
    ]
    # the top rung: the complex with the most simplices and the widest matrices
    if tiny:
        jobs.append(product_job("circle5-x-circle5", _cycle_cells(5), [1, 1],
                                _cycle_cells(5), [1, 1]))
    else:
        jobs.append(product_job("torus7-x-torus7", _torus7_cells(), [1, 2, 1],
                                _torus7_cells(), [1, 2, 1]))
    pn = 3 if tiny else 8
    jobs.append(pair_job(f"sphere-{pn}-minus-vertex", _sphere_cells(pn), [(0,)],
                         [0] * pn + [1]))
    cn = 4 if tiny else 16
    meridian = [((0, j), (0, (j + 1) % cn)) for j in range(cn)]
    jobs.append(pair_job(f"torus-{cn}x{cn}-minus-circle", _torus_cells(cn), meridian,
                         [0, 1, 1]))
    return jobs


# -- mv-cover ------------------------------------------------------------------

# Pages E_1..E_3 of the surface-443 cover (two spheres and a torus meeting
# pairwise in circles through four common points), as published.
_SURFACE_PAGES = [
    {(0, 0): 3, (1, 0): 3, (2, 0): 4, (0, 1): 2, (1, 1): 3, (0, 2): 3},
    {(0, 0): 1, (2, 0): 3, (0, 1): 2, (1, 1): 3, (0, 2): 3},
    {(0, 0): 1, (2, 0): 2, (0, 1): 1, (1, 1): 3, (0, 2): 3},
]


def _profile_of(page: dict, top: int) -> list:
    """w(i, j) = dim E_inf^(i-j, j), nonzero entries, sorted."""
    return sorted(
        [[i, j], page[(i - j, j)]]
        for i in range(top + 1) for j in range(i + 1)
        if page.get((i - j, j))
    )


def _page_list(dims: dict) -> list:
    return sorted([[p, q], d] for (p, q), d in dims.items() if d)


def _cover_expectation(pages: list[dict], betti: list[int], stable_from: int,
                       nerve: int) -> dict:
    top = len(betti) - 1
    return {
        "pages": [_page_list(p) for p in pages],
        "euler": [_euler(betti)] * len(pages),
        "converged": betti,
        "stable_from": stable_from,
        "profile": _profile_of(pages[-1], top),
        "nerve": nerve,
    }


def _mv_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    from virtbetti import models, simplicial, spectral

    def observe(result):
        ss, pages, cert, conv, profile = result
        m = len(ss.arrangement.pieces)
        nerve = sum(
            1 for size in range(1, m + 1) for subset in combinations(range(m), size)
            if ss.intersection_complex(subset)
        )
        return {
            "pages": [_page_list(p.dims) for p in pages],
            "euler": [p.euler() for p in pages],
            "converged": list(conv),
            "stable_from": cert.stable_from,
            "profile": sorted([[i, j], d] for (i, j), d in profile.w.items() if d),
            "nerve": nerve,
        }

    def cover_job(name, verts, maximal, pieces, expected, top=False):
        order = list(range(len(pieces)))
        rng.shuffle(order)
        pieces = [pieces[i] for i in order]

        def run():
            total = simplicial.SimplicialComplex.from_maximal(verts, maximal)
            arrangement = spectral.Arrangement(total, tuple(
                (pname, total.subcomplex(maximal=mx)) for pname, mx in pieces
            ))
            ss = spectral.MVSpectralSequence(arrangement)
            pages = ss.pages(len(pieces))
            cert = ss.stabilization_certificate()
            conv = ss.converged_betti()
            return ss, pages, cert, conv, ss.filtration_profile()

        return Job(name, run, observe, expected, top)

    def band_job(n, k, top=False):
        verts, tris = _torus_cells(n)
        shift = rng.randrange(n)
        rows = _band_rows(n, k, shift)
        vs, maximal, names = _relabel(rng, verts, tris, prefix="t")
        # a grid triangle spans rows i..i+1, where i is its first vertex's row
        pieces = [
            (f"B{b}", [[names[v] for v in t] for t in tris if t[0][0] in band])
            for b, band in enumerate(rows)
        ]
        e1 = {(0, 0): k, (1, 0): k, (0, 1): k, (1, 1): k}
        e2 = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        expected = _cover_expectation([e1] + [e2] * (k - 1), [1, 2, 1], 2, 2 * k)
        return cover_job(f"torus-{n}x{n}-{k}-bands", vs, maximal, pieces, expected, top)

    jobs = []
    surface = models.surface_model()
    total = surface.total
    verts, maximal, names = _relabel(
        rng, list(total.vertices), simplicial.maximal_simplices(total), prefix="s")
    pieces = [
        (pname, [[names[v] for v in s]
                 for s in simplicial.maximal_simplices(total, piece.simplices)])
        for pname, piece in surface.pieces()
    ]
    jobs.append(cover_job("surface-443", verts, maximal, pieces,
                          _cover_expectation(_SURFACE_PAGES, [1, 1, 8], 3, 7)))
    if tiny:
        jobs += [band_job(6, 3), band_job(8, 4, top=True)]
    else:
        jobs += [band_job(10, 8), band_job(16, 4, top=True)]
    return jobs


# -- scene-cli -----------------------------------------------------------------

# Known virtual Betti coefficients and chi_c of the scene's atoms.
_ATOMS = {
    "circle": ([1, 1], 0),
    "point": ([1], 1),
    "two-points": ([2], 2),
    "sphere-2": ([1, 0, 1], 2),
    "torus": ([1, 2, 1], 0),
    "rp2": ([1, 1, 1], 1),
    "line": ([0, 1], -1),
    "exotic": ([1, 0, 3], 4),
}


def _random_expression(rng: random.Random, depth: int):
    """(expression dict, beta coefficients, chi_c) of a random scissor term."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(sorted(_ATOMS))
        beta, chi = _ATOMS[name]
        return {"op": "atom", "name": name}, list(beta), chi
    op = rng.choice(("union", "product", "difference", "blowup"))
    if op == "blowup":
        (base, b0, c0), (center, b1, c1), (exc, b2, c2) = (
            _random_expression(rng, depth - 1) for _ in range(3)
        )
        node = {"op": "blowup", "base": base, "center": center, "exceptional": exc}
        return node, _poly_add(_poly_add(b0, b1, -1), b2), c0 - c1 + c2
    (left, bl, cl), (right, br, cr) = (_random_expression(rng, depth - 1) for _ in range(2))
    if op == "union":
        return {"op": "union", "left": left, "right": right}, _poly_add(bl, br), cl + cr
    if op == "product":
        return ({"op": "product", "left": left, "right": right},
                _trim(_convolve(bl, br)) if bl and br else [], cl * cr)
    return ({"op": "difference", "total": left, "closed": right},
            _poly_add(bl, br, -1), cl - cr)


def _planted_weights(rng: random.Random, b: tuple[int, ...]):
    """A random triangular array with diagonal sums b, and its row sums beta."""
    rows = []
    for i, total in enumerate(b):
        cuts = sorted(rng.randint(0, total) for _ in range(i))
        bounds = [0] + cuts + [total]
        rows.append([bounds[k + 1] - bounds[k] for k in range(i + 1)])
    n = len(b) - 1
    beta = [sum((-1) ** (i - j) * rows[i][j] for i in range(j, n + 1)) for j in range(n + 1)]
    return rows, beta


def _scene_document(rng: random.Random, tiny: bool) -> tuple[dict, dict]:
    """The scene file's JSON document and the expected answers for it."""
    complexes, expect = {}, {"betti": {}, "vbetti": {}, "mvss": {}, "weights": {}}

    def add_complex(name, cells, betti):
        verts, maximal, names = _relabel(rng, *cells, prefix=name[:2] + "_")
        complexes[name] = {"vertices": verts, "maximal_simplices": maximal}
        expect["betti"][name] = {"betti": betti}
        return names

    add_complex("circle", _cycle_cells(5), [1, 1])
    line_names = add_complex("circle-3", _cycle_cells(3), [1, 1])
    add_complex("point", ([0], []), [1])
    add_complex("two-points", ([0, 1], []), [2])
    add_complex("sphere-2", _sphere_cells(2), [1, 0, 1])
    s3_names = add_complex("sphere-3", _sphere_cells(3), [1, 0, 0, 1])
    torus_names = add_complex("torus", _torus_cells(5), [1, 2, 1])
    add_complex("rp2", (list(range(1, 7)), _RP2_TRIS), [1, 1, 1])
    big = 6 if tiny else 12
    add_complex("torus-big", _torus_cells(big), [1, 2, 1])
    bands_n = 6
    band_names = add_complex("band-torus", _torus_cells(bands_n), [1, 2, 1])
    # two 4-cycles through u=0 and v=1: x=2,3 and y=4,5
    c1 = [(0, 2), (2, 1), (1, 3), (3, 0)]
    c2 = [(0, 4), (4, 1), (1, 5), (5, 0)]
    tangent_names = add_complex("tangent", (list(range(6)), c1 + c2), [1, 3])

    pairs = {
        "line": {"total": "circle-3", "boundary_maximal": [[line_names[0]]]},
        "sphere-pair": {"total": "sphere-3", "boundary_maximal": [
            [s3_names[v] for v in s] for s in combinations(range(4), 3)]},
        "torus-minus-circle": {"total": "torus", "boundary_maximal": [
            [torus_names[(0, j)], torus_names[(0, (j + 1) % 5)]] for j in range(5)]},
    }
    atoms = {name: {"model": name} for name in
             ("circle", "point", "two-points", "sphere-2", "torus", "rp2")}
    atoms["line"] = {"beta": "t", "chi_c": -1, "provenance": "recursive",
                     "compact_nonsingular": False}
    atoms["exotic"] = {"beta": "1 + 3*t^2", "chi_c": 4, "provenance": "declared",
                       "compact_nonsingular": True}

    expressions = {}
    for k in range(3):
        node, beta, chi = _random_expression(rng, 3)
        expressions[f"expr-{k}"] = node
        expect["vbetti"][f"expr-{k}"] = {"coefficients": beta, "chi_c": chi}

    def open_stratum(name, dim, pair):
        return {"name": name, "dim": dim,
                "model": {"kind": "open", "pair": pair, "boundary_nonsingular": True}}

    def compact_stratum(name, dim, cx):
        return {"name": name, "dim": dim, "model": {"kind": "compact", "complex": cx}}

    stratifications = {
        "circle-as-two": {"strata": [open_stratum("arc", 1, "line"),
                                     compact_stratum("pt", 0, "point")],
                          "frontier": {"arc": ["pt"]}},
        "sphere-diff": {"strata": [open_stratum("complement", 3, "sphere-pair")],
                        "frontier": {}},
        "torus-open": {"strata": [open_stratum("cylinder", 2, "torus-minus-circle"),
                                  compact_stratum("meridian", 1, "circle")],
                       "frontier": {"cylinder": ["meridian"]}},
    }
    expect["vbetti"]["circle-as-two"] = {"coefficients": [1, 1]}
    expect["vbetti"]["sphere-diff"] = {"coefficients": [0, 0, -1, 1]}
    expect["vbetti"]["torus-open"] = {"coefficients": [1, 2, 1]}

    _, tris = _torus_cells(bands_n)
    band_pieces = []
    for b, rows in enumerate(_band_rows(bands_n, 3, rng.randrange(bands_n))):
        band_pieces.append({"name": f"B{b}", "maximal_simplices": [
            [band_names[v] for v in t] for t in tris if t[0][0] in rows]})
    arrangements = {
        "bands": {"total": "band-torus", "pieces": band_pieces},
        "tangent": {"total": "tangent", "pieces": [
            {"name": "C1", "maximal_simplices": [[tangent_names[v] for v in e] for e in c1]},
            {"name": "C2", "maximal_simplices": [[tangent_names[v] for v in e] for e in c2]},
        ]},
    }
    # pieces plus pairwise intersections, by inclusion-exclusion:
    # three annuli minus three circles; two circles minus two points
    expect["vbetti"]["bands"] = {"coefficients": []}
    expect["vbetti"]["tangent"] = {"coefficients": [0, 2]}
    expect["mvss"]["bands"] = {"converged": [1, 2, 1], "stable_from": 2, "euler": 0}
    expect["mvss"]["tangent"] = {"converged": [1, 3], "stable_from": 2, "euler": -2}

    sizes = {"w-small": (1, 2, 5), "w-medium": (1, 3, 6, 3), "w-large": (1, 3, 8, 4)} if tiny \
        else {"w-small": (1, 2, 6), "w-medium": (1, 3, 8, 4), "w-large": (1, 4, 12, 5)}
    weight_inputs = {}
    for name, b in sizes.items():
        rows, beta = _planted_weights(rng, b)
        weight_inputs[name] = {"b": list(b), "beta": beta}
        expect["weights"][name] = {"b": list(b), "beta": beta, "planted": rows}

    document = {
        "schema_version": 1,
        "complexes": complexes,
        "pairs": pairs,
        "atoms": atoms,
        "expressions": expressions,
        "stratifications": stratifications,
        "arrangements": arrangements,
        "weight_inputs": weight_inputs,
    }
    return document, expect


def _observe_cli(command: str, expect: dict):
    """Facts about one CLI command's JSON output, shaped like ``expect``."""

    def observe(result):
        rc, out = result
        if rc != 0:
            return {"exit": rc}
        data = json.loads(out)
        if command == "fixtures":
            return {"exit": rc, "all_passed": bool(data) and all(r["passed"] for r in data)}
        if command == "betti":
            return {"exit": rc, "betti": data["betti"]}
        if command == "vbetti":
            facts = {"exit": rc, "coefficients": data["coefficients"]}
            if "chi_c" in expect:
                facts["chi_c"] = data["chi_c"]
            return facts
        if command == "mvss":
            eulers = {
                sum((-1) ** sum(int(x) for x in pq.split(",")) * d
                    for pq, d in page["entries"].items())
                for page in data["pages"]
            }
            return {
                "exit": rc,
                "converged": data["converged_betti"],
                "stable_from": data["stabilization"]["stable_from"],
                "euler": eulers.pop() if len(eulers) == 1 else sorted(eulers),
            }
        # weights: every solution satisfies the system, the planted array is
        # among them, and the list is sorted without repeats
        b, beta = expect["b"], expect["beta"]
        n = len(b) - 1
        sols = data["solutions"]
        ok = all(
            all(x >= 0 for row in w for x in row)
            and [sum(row) for row in w] == b
            and [sum((-1) ** (i - j) * w[i][j] for i in range(j, n + 1))
                 for j in range(n + 1)] == beta
            for w in sols
        )
        flat = [[x for row in w for x in row] for w in sols]
        return {
            "exit": rc,
            "all_satisfy": ok,
            "planted_found": expect["planted"] in sols,
            "sorted_unique": all(a < c for a, c in zip(flat, flat[1:])),
        }

    return observe


def _expected_cli(command: str, expect: dict) -> dict:
    if command == "fixtures":
        return {"exit": 0, "all_passed": True}
    if command == "weights":
        return {"exit": 0, "all_satisfy": True, "planted_found": True, "sorted_unique": True}
    return {"exit": 0, **expect}


def _scene_jobs(rng: random.Random, tiny: bool, workdir: Path, cli: str) -> list[Job]:
    from virtbetti import cli as cli_mod
    from virtbetti import fixtures, scene

    document, expect = _scene_document(rng, tiny)
    scene_path = workdir / "scene.json"
    with open(scene_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)

    src = str(Path(cli_mod.__file__).resolve().parent.parent)
    env = dict(os.environ)
    # pass the import path explicitly: a bare environment would drop it
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    clear_builtin = fixtures.builtin_scene.cache_clear

    def subprocess_runner(argv):
        def run():
            proc = subprocess.run(
                [sys.executable, "-m", "virtbetti.cli", *argv],
                capture_output=True, text=True, env=env, cwd=workdir, timeout=120,
            )
            return proc.returncode, proc.stdout
        return run

    def inprocess_runner(argv):
        def run():
            # a fresh process would rebuild the embedded scene on each command
            clear_builtin()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = cli_mod.main(list(argv))
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue()
        return run

    runner = subprocess_runner if cli == "subprocess" else inprocess_runner

    def cli_job(command, name=None, extra=(), top=False):
        argv = [command] + ([name, "--scene", str(scene_path)] if name else []) + ["--json"]
        argv += list(extra)
        sub = expect[command].get(name, {}) if name else {}
        return Job(f"cli:{command}" + (f":{name}" if name else ""), runner(argv),
                   _observe_cli(command, sub), _expected_cli(command, sub), top,
                   process=cli == "subprocess")

    def round_trip(k):
        first, second = workdir / "dump-1.json", workdir / "dump-2.json"

        def run():
            s1 = scene.load_scene(str(scene_path))
            scene.dump_scene(s1, str(first))
            s2 = scene.load_scene(str(first))
            scene.dump_scene(s2, str(second))
            return s1, s2

        def observe(result):
            s1, s2 = result
            return {"equal_data": s1 == s2,
                    "equal_bytes": first.read_bytes() == second.read_bytes()}

        return Job(f"round-trip-{k}", run, observe, {"equal_data": True, "equal_bytes": True})

    return [
        cli_job("fixtures"),
        round_trip(1),
        cli_job("betti", "torus-big"),
        cli_job("betti", "rp2"),
        cli_job("vbetti", "expr-0", ["--chi-c"]),
        cli_job("vbetti", "expr-1", ["--chi-c"]),
        cli_job("vbetti", "expr-2", ["--chi-c"]),
        round_trip(2),
        cli_job("vbetti", "circle-as-two"),
        cli_job("vbetti", "sphere-diff"),
        cli_job("vbetti", "torus-open"),
        cli_job("vbetti", "bands"),
        cli_job("vbetti", "tangent"),
        round_trip(3),
        cli_job("mvss", "bands"),
        cli_job("mvss", "tangent"),
        cli_job("weights", "w-small"),
        cli_job("weights", "w-medium"),
        cli_job("weights", "w-large", top=True),
        round_trip(4),
    ]


def setup(workload: str, seed: int, workdir: Path, *, tiny: bool = False,
          cli: str = "subprocess") -> list[Job]:
    """Import virtbetti and generate the workload's seeded job list.

    ``cli`` chooses how scene-cli commands run: "subprocess" (what a user
    pays per command) or "inprocess" through ``cli.main`` (so a tracer in
    this process sees the CLI's layers).
    """
    import virtbetti  # noqa: F401  (the import is part of set-up)

    rng = random.Random(f"{workload}:{seed}")
    if workload == "homology":
        return _homology_jobs(rng, tiny)
    if workload == "mv-cover":
        return _mv_jobs(rng, tiny)
    if workload == "scene-cli":
        return _scene_jobs(rng, tiny, workdir, cli)
    raise ValueError(f"unknown workload {workload!r}")
