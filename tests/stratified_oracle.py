"""Reference stratification walkers for the tests: recursion per link.

This is how ``virtbetti.stratified`` and ``virtbetti.scene`` walked a chain
of ``boundary_strata`` before each link became a generator run by
``stratified.walk``: ``_beta_of_stratum`` and ``_beta_of_stratified`` call
each other once per link, as do ``_resolve_stratification`` and
``_strat_model_from_dict``, so the chain's length is bounded by the
interpreter's recursion limit.  ``refinement_check`` is the old one too:
each stratum is evaluated with a memo of its own, and the two totals are
evaluated a second time through ``beta_of_stratified``.  The degree rule is
written out here as well, with the reasons of ``scissor.degree_verdict``.

``scene_from_dict`` loads everything but the stratifications with the
engine, then resolves them here, inside the engine's error mapping.
"""

from __future__ import annotations

from virtbetti.errors import (
    DimensionMismatch,
    MissingBoundaryData,
    SceneError,
    Verdict,
    VirtBettiError,
    json_int,
)
from virtbetti.polynomial import IntPolynomial, parse_polynomial
from virtbetti.scene import _json
from virtbetti.scene import scene_from_dict as engine_scene_from_dict
from virtbetti.stratified import (
    CompactModel,
    DeclaredBeta,
    OpenModel,
    StratifiedSpec,
    StratumRecord,
)


def _note_mismatch(subject, beta, dim, strict, warnings, **context):
    """The degree rule, written out here rather than read from ``scissor``."""
    if beta.is_zero():
        reason = "polynomial is zero: the class of a nonempty variety is never zero"
    elif beta.degree != dim:
        reason = f"degree {beta.degree} does not match claimed dimension {dim}"
    elif beta.leading_coefficient <= 0:
        reason = f"leading coefficient {beta.leading_coefficient} is not positive"
    else:
        return
    message = f"{subject} {beta} fails: {reason}"
    if strict:
        raise DimensionMismatch(message, **context)
    if warnings is not None:
        warnings.append(message)


def beta_of_stratum(stratum, *, strict=False):
    return _beta_of_stratum(stratum, None, strict, None, {})


def _beta_of_stratum(stratum, stratification, strict, warnings, done):
    where, context = f"stratum {stratum.name!r}", {"stratum": stratum.name}
    if stratification is not None:
        where = f"stratification {stratification!r}, {where}"
        context["stratification"] = stratification
    model = stratum.model
    if isinstance(model, CompactModel):
        beta = model.complex.poincare_polynomial()
    elif isinstance(model, OpenModel):
        total = model.pair.total.poincare_polynomial()
        boundary = model.pair.boundary
        if boundary.is_empty():
            boundary_beta = IntPolynomial.zero()
        elif model.boundary_strata is not None:
            boundary_beta = _beta_of_stratified(model.boundary_strata, strict, warnings, done)
        elif model.boundary_nonsingular:
            boundary_beta = boundary.as_complex().poincare_polynomial()
        else:
            raise MissingBoundaryData(
                f"{where}: complement is flagged singular but "
                "no stratification of it was supplied",
                **context,
            )
        beta = total - boundary_beta
    elif isinstance(model, DeclaredBeta):
        beta = model.beta
    else:
        raise TypeError(f"unknown stratum model {model!r}")
    if not (beta.is_zero() and stratum.dim < 0):
        _note_mismatch(f"{where}: polynomial", beta, stratum.dim, strict, warnings, **context)
    return beta


def beta_of_stratified(spec, *, strict=False, warnings=None):
    return _beta_of_stratified(spec, strict, warnings, {})


def _beta_of_stratified(spec, strict, warnings, done):
    if id(spec) in done:
        return done[id(spec)]
    total = IntPolynomial.zero()
    for stratum in spec.strata:
        total = total + _beta_of_stratum(stratum, spec.name, strict, warnings, done)
    if spec.strata:
        top = max(s.dim for s in spec.strata)
        _note_mismatch(f"stratification {spec.name!r}: total polynomial", total, top,
                       strict, warnings, stratification=spec.name)
    done[id(spec)] = total
    return total


def refinement_check(coarse, fine, mapping):
    """The old walk, which finds each fine stratum by a scan; ``mapping``
    must partition the fine strata (the engine's partition check comes
    first)."""
    for stratum in coarse.strata:
        lhs = _beta_of_stratum(stratum, coarse.name, False, None, {})
        rhs = IntPolynomial.zero()
        for name in mapping[stratum.name]:
            part = next(s for s in fine.strata if s.name == name)  # a scan per name
            rhs = rhs + _beta_of_stratum(part, fine.name, False, None, {})
        if lhs != rhs:
            return Verdict(
                False,
                f"stratum {stratum.name!r}: {lhs} differs from refinement sum {rhs}",
            )
    total = beta_of_stratified(coarse)
    beta_of_stratified(fine)
    return Verdict(True, f"refinement compatible; total {total}")


def scene_from_dict(data):
    """The engine's scene with its stratifications resolved here; errors are
    mapped as the engine's ``scene_from_dict`` maps them."""
    scene = engine_scene_from_dict({**data, "stratifications": {}})
    try:
        raw_strats = _json(data.get("stratifications", {}), "stratifications")
        for name in sorted(raw_strats):
            _resolve_stratification(name, scene, raw_strats, set())
    except VirtBettiError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise SceneError(f"malformed scene: {exc}") from exc
    except RecursionError:
        raise SceneError("scene nests too deeply") from None
    return scene


def _strat_model_from_dict(data, scene, raw_strats, resolving, path):
    kind = _json(data, path + ", model").get("kind")
    if kind == "compact":
        return CompactModel(scene.complex(_json(data["complex"], path + ", complex", "string")))
    if kind == "declared":
        return DeclaredBeta(parse_polynomial(data["beta"]))
    if kind == "open":
        pair = scene.pair(_json(data["pair"], path + ", pair", "string"))
        boundary_strata = None
        if "boundary_strata" in data and data["boundary_strata"] is not None:
            boundary_strata = _resolve_stratification(
                _json(data["boundary_strata"], path + ", boundary_strata", "string"),
                scene, raw_strats, resolving
            )
        return OpenModel(
            pair=pair,
            boundary_nonsingular=_json(data.get("boundary_nonsingular", True),
                                       path + ", boundary_nonsingular", "boolean"),
            boundary_strata=boundary_strata,
        )
    raise SceneError(f"{path}: unknown stratum model kind {kind!r}", kind=kind)


def _resolve_stratification(name, scene, raw_strats, resolving):
    if name in scene.stratifications:
        return scene.stratifications[name]
    if name not in raw_strats:
        raise SceneError(f"unknown stratification {name!r}", name=name)
    if name in resolving:
        raise SceneError(f"stratifications reference each other in a cycle at {name!r}")
    resolving.add(name)
    path = f"stratification {name!r}"
    raw = _json(raw_strats[name], path)
    strata = []
    for s in _json(raw.get("strata", []), path + ", strata", "array"):
        s = _json(s, path + ", stratum")
        sname = _json(s.get("name"), path + ", stratum name", "string")
        where = f"{path}, stratum {sname!r}"
        model = _strat_model_from_dict(s.get("model", {}), scene, raw_strats, resolving, where)
        dim = json_int(s["dim"], where + ", dim", SceneError)
        strata.append(StratumRecord(sname, dim, model))
    frontier = {
        src: frozenset(_json(t, f"{path}, frontier {src!r}[{i}]", "string")
                       for i, t in enumerate(_json(targets, f"{path}, frontier {src!r}", "array")))
        for src, targets in _json(raw.get("frontier", {}), path + ", frontier").items()
    }
    spec = StratifiedSpec(name, tuple(strata), frontier)
    scene.stratifications[name] = spec
    resolving.discard(name)
    return spec
