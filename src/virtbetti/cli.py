"""Batch command-line interface.

Commands: betti, vbetti, mvss, weights, fixtures.  Scenes are JSON files;
without --scene the embedded fixture scene is used, so e.g.
``virtbetti betti surface-443`` works out of the box.

Exit codes: 0 success, 1 fixture failure, 2 usage or unknown name,
3 validation failure.  Errors go to stderr as one JSON object
``{code, message, context}``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    MalformedConstraint,
    SceneError,
    UnknownName,
    VirtBettiError,
    json_value,
    read_json,
)
from .polynomial import IntPolynomial
from .scene import Scene, load_scene
from .scissor import evaluate_beta, evaluate_chi_c
from .stratified import beta_of_stratified

EXIT_OK = 0
EXIT_FIXTURE_FAILURE = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _emit_error(exc: VirtBettiError) -> None:
    sys.stderr.write(json.dumps(exc.to_dict(), sort_keys=True) + "\n")


def _betti_text(b) -> str:
    return " ".join(str(x) for x in b) if len(b) else "0"


def _scene_from_args(args) -> Scene:
    if args.scene:
        return load_scene(args.scene)
    # the embedded scene and its models are some 940 lines a --scene command never needs
    from .fixtures import builtin_scene

    return builtin_scene()


def _virtual_betti_lines(beta: IntPolynomial, chi_c: int, want_chi: bool) -> list[str]:
    lines = [f"beta: {beta.to_text()}"]
    if not beta.is_zero():
        for i, c in enumerate(beta.coeffs):
            lines.append(f"beta_{i}: {c}")
    if want_chi:
        lines.append(f"chi_c: {chi_c}")
    return lines


def cmd_betti(args) -> int:
    scene = _scene_from_args(args)
    complex_ = scene.complex(args.name)
    b = complex_.betti_mod2()
    if args.json:
        print(json.dumps({"name": args.name, "betti": list(b)}))
    else:
        print(f"b: {_betti_text(b)}")
    return EXIT_OK


def _vbetti_target(scene: Scene, name: str, warnings: list[str] | None):
    """Resolve a vbetti target (expression, stratification or arrangement)
    to (beta, chi_c); chi_c is beta(-1) unless an expression's atoms give it
    independently.  A stratification's degree failures go to ``warnings``,
    or are raised if it is None."""
    if name in scene.expressions:
        expr = scene.expressions[name]
        return evaluate_beta(expr, scene.atoms), evaluate_chi_c(expr, scene.atoms)
    if name in scene.stratifications:
        beta = beta_of_stratified(scene.stratifications[name], warnings=warnings)
    elif name in scene.arrangements:
        beta = scene.arrangements[name].virtual_betti()
    else:
        raise UnknownName(
            f"{name!r} is not an expression, stratification or arrangement",
            name=name,
            known=sorted(
                set(scene.expressions) | set(scene.stratifications) | set(scene.arrangements)
            ),
        )
    return beta, beta.evaluate(-1)


def cmd_vbetti(args) -> int:
    scene = _scene_from_args(args)
    warnings: list[str] = []
    beta, chi = _vbetti_target(scene, args.name, None if args.strict else warnings)
    if not args.quiet:
        for w in warnings:
            sys.stderr.write(f"warning: {w}\n")
    if args.json:
        payload = {
            "name": args.name,
            "beta": beta.to_text(),
            "coefficients": list(beta.coeffs),
        }
        if args.chi_c:
            payload["chi_c"] = chi
        print(json.dumps(payload))
    else:
        for line in _virtual_betti_lines(beta, chi, args.chi_c):
            print(line)
    return EXIT_OK


def cmd_mvss(args) -> int:
    # a cold process compiles what it imports: only mvss runs the MV engine
    from .spectral import MVSpectralSequence, row_alternating_sums

    scene = _scene_from_args(args)
    ss = MVSpectralSequence(scene.arrangement(args.name))
    cert = ss.stabilization_certificate()
    # the pages stop changing at E_{stable_from}: none past max(--pages, stable_from) is listed
    pages = ss.pages(max(args.pages, cert.stable_from))
    # E_1^{p,q} is the sum of H^q over the (p+1)-fold meets, so its row
    # alternating sums are the inclusion-exclusion over the nerve
    beta = IntPolynomial(row_alternating_sums(ss.page(1)))
    profile = ss.filtration_profile()
    verdict = profile.check_virtual_betti(beta.coeffs)
    converged = ss.converged_betti()
    if args.json:
        payload = {
            "name": args.name,
            "pages": [
                {"r": p.r, "entries": {f"{pq[0]},{pq[1]}": d for pq, d in sorted(p.dims.items())}}
                for p in pages
            ],
            "row_alternating_sums": {
                str(p.r): row_alternating_sums(p) for p in pages
            },
            "converged_betti": list(converged),
            "filtration": {f"{i},{j}": v for (i, j), v in sorted(profile.w.items())},
            "virtual_betti": beta.to_text(),
            "virtual_betti_condition": {"holds": verdict.holds, "detail": verdict.detail},
            "stabilization": {"stable_from": cert.stable_from, "detail": cert.detail},
        }
        print(json.dumps(payload))
        return EXIT_OK
    for page in pages[: args.pages]:
        for line in page.table_lines():
            print(line)
        print(f"  row alternating sums: {row_alternating_sums(page)}")
        print()
    print(f"E_infinity = E_{cert.stable_from}  ({cert.detail})")
    print(f"converged b: {_betti_text(converged)}")
    print("filtration profile w(i,j) = dim E_infinity^(i-j,j):")
    for i in range(profile.n, -1, -1):
        row = " ".join(str(profile.value(i, j)) for j in range(i + 1))
        print(f"  i={i}: {row}")
    print(f"virtual Betti numbers by inclusion-exclusion: {beta.to_text()}")
    status = "holds" if verdict.holds else "FAILS"
    print(f"virtual Betti condition on the limit filtration: {status} ({verdict.detail})")
    return EXIT_OK


def _triangle_lines(w) -> list[str]:
    return ["  " + line for line in w.triangle_lines()]


def cmd_weights(args) -> int:
    # only weights runs the weight search: betti and vbetti never compile it
    from .weights import LinearConstraint, constraint_filter, solve_weight_system

    scene = _scene_from_args(args)
    inp = scene.weight_input(args.name)
    constraints = []
    if args.constraints:  # a broken file is reported even where the search is refused
        raw = read_json(args.constraints, "constraints file", SceneError)
        raw = json_value(raw, "constraints file", "array", MalformedConstraint)
        constraints = [LinearConstraint.from_dict(c) for c in raw]
    solutions = solve_weight_system(inp)
    result = constraint_filter(solutions, constraints, inp.n)
    if args.json:
        payload = {
            "name": args.name,
            "b": list(inp.b),
            "beta": list(inp.beta),
            "solutions": [[list(r) for r in w.rows] for w in solutions],
            "constraints": [c.to_dict() for c in constraints],
            "survivors": [[list(r) for r in w.rows] for w in result.survivors],
            "infeasible": result.infeasible,
        }
        print(json.dumps(payload))
        return EXIT_OK
    print(f"b: {' '.join(str(x) for x in inp.b)}")
    print(f"beta: {' '.join(str(x) for x in inp.beta)}")
    if not solutions:
        print("INFEASIBLE (the diagonal/row system has no nonnegative solution)")
        return EXIT_OK
    print(f"{len(solutions)} solution(s):")
    for k, w in enumerate(solutions):
        print(f"solution {k + 1}:")
        for line in _triangle_lines(w):
            print(line)
    if constraints:
        print("constraints:")
        for c in constraints:
            print(f"  {c.describe()}")
        if result.infeasible:
            names = ", ".join(c.describe() for c in result.blocking_constraints())
            print(f"INFEASIBLE (violates: {names})")
        else:
            print(f"{len(result.survivors)} solution(s) satisfy all constraints:")
            for k, w in enumerate(result.survivors):
                print(f"filtered solution {k + 1}:")
                for line in _triangle_lines(w):
                    print(line)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    from .fixtures import builtin_scene, fixture_names, run_fixture

    scene = builtin_scene()
    if args.list:
        for name in fixture_names():
            print(name)
        return EXIT_OK
    names = [args.run] if args.run else fixture_names()
    failures = 0
    results = []
    for name in names:
        for res in run_fixture(name, scene):
            results.append(res)
            if not res.passed:
                failures += 1
    shown = [r for r in results if not (args.quiet and r.passed)]
    if args.json:
        print(json.dumps([
            {
                "fixture": r.fixture,
                "check": r.check,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in shown
        ]))
    else:
        for r in shown:
            status = "PASS" if r.passed else "FAIL"
            suffix = f"  [{r.detail}]" if (r.detail and not r.passed) else ""
            print(f"{status} {r.fixture} :: {r.check}{suffix}")
        print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_FIXTURE_FAILURE if failures else EXIT_OK


def _page_count(text: str) -> int:
    """An int of at least 1: the pages start at E_1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {count}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="virtbetti",
        description="Betti numbers, virtual Poincare polynomials, Mayer-Vietoris "
                    "spectral sequences and weight systems for combinatorial models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", parents=[common], help="mod-2 Betti numbers of a complex")
    p.add_argument("name")
    p.add_argument("--scene", help="scene file (default: embedded fixtures)")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("vbetti", parents=[common],
                       help="virtual Poincare polynomial of an expression, "
                            "stratification or arrangement")
    p.add_argument("name")
    p.add_argument("--scene")
    p.add_argument("--chi-c", action="store_true", dest="chi_c",
                   help="also print the value at t = -1")
    p.add_argument("--strict", action="store_true", help="degree diagnostics become errors")
    p.add_argument("--quiet", action="store_true", help="suppress warnings")
    p.set_defaults(func=cmd_vbetti)

    p = sub.add_parser("mvss", parents=[common],
                       help="Mayer-Vietoris spectral sequence of an arrangement")
    p.add_argument("name")
    p.add_argument("--scene")
    p.add_argument("--pages", type=_page_count, default=3,
                   help="pages to print, at least 1 (default 3)")
    p.set_defaults(func=cmd_mvss)

    p = sub.add_parser("weights", parents=[common],
                       help="enumerate weight-filtration profiles")
    p.add_argument("name")
    p.add_argument("--scene")
    p.add_argument("--constraints", help="JSON file with linear constraints")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("fixtures", parents=[common], help="run the embedded example suite")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true", help="list fixture names")
    group.add_argument("--run", metavar="NAME", help="run a single fixture")
    p.add_argument("--quiet", action="store_true", help="print only the failed checks")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownName as exc:
        _emit_error(exc)
        return EXIT_USAGE
    except VirtBettiError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
