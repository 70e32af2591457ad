"""Scene files: one JSON document naming atoms, complexes, pairs,
expressions, stratifications, arrangements and weight inputs.

Everything is validated on load, before any computation; cross-references
resolve by name.  Serialization is canonical (sorted names, lexicographic
maximal simplices, polynomials as text), so load -> dump -> load is the
identity.  The expression grammar (each node's op, child keys and ring
rule) lives in ``scissor.NODES``; this module reads it and itself names
only the leaves (``atom``, ``empty``) and a blowup's optional ``label``.
Stratifications resolve their ``boundary_strata`` references through
``stratified.walk``, so a chain of them is as long as memory allows.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .cover import Arrangement
from .errors import Record, SceneError, UnknownName, VirtBettiError, json_int, json_value, read_json
from .polynomial import parse_polynomial
from .scissor import NODES, OP_OF, Atom, AtomRecord, Empty, ScissorExpr, children
from .simplicial import PairSpace, SimplicialComplex, Subcomplex, maximal_simplices
from .stratified import (
    CompactModel,
    DeclaredBeta,
    OpenModel,
    StratifiedSpec,
    StratumRecord,
    walk,
)
from .triangle import WeightSystemInput

__all__ = ["Scene", "scene_from_dict", "scene_to_dict", "load_scene", "dump_scene"]

SCHEMA_VERSION = 1


class Scene(Record):
    """All named objects of one scene file, each section a ``{name: object}``
    dict that starts empty when not given; unlike other records, mutable."""

    atoms: dict[str, AtomRecord]
    complexes: dict[str, SimplicialComplex]
    pairs: dict[str, PairSpace]
    expressions: dict[str, ScissorExpr]
    stratifications: dict[str, StratifiedSpec]
    arrangements: dict[str, Arrangement]
    weight_inputs: dict[str, WeightSystemInput]

    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, *args, **kwargs):
        for name in self._fields[len(args):]:  # a field not given starts empty
            kwargs.setdefault(name, {})
        super().__init__(*args, **kwargs)

    def complex(self, name: str) -> SimplicialComplex:
        return _get(self.complexes, name, "complex")

    def pair(self, name: str) -> PairSpace:
        return _get(self.pairs, name, "pair")

    def expression(self, name: str) -> ScissorExpr:
        return _get(self.expressions, name, "expression")

    def stratification(self, name: str) -> StratifiedSpec:
        return _get(self.stratifications, name, "stratification")

    def arrangement(self, name: str) -> Arrangement:
        return _get(self.arrangements, name, "arrangement")

    def weight_input(self, name: str) -> WeightSystemInput:
        return _get(self.weight_inputs, name, "weight input")


def _get(mapping: Mapping[str, Any], name: str, kind: str):
    try:
        return mapping[name]
    except KeyError:
        raise UnknownName(
            f"no {kind} named {name!r} in the scene",
            kind=kind,
            name=name,
            known=sorted(mapping),
        ) from None


# -- loading -----------------------------------------------------------------


def _expr_from_dict(data: Mapping, atoms: Mapping[str, AtomRecord], path: str) -> ScissorExpr:
    if "op" not in _json(data, path):
        raise SceneError(f"{path}: expression node needs an 'op' field")
    op = data["op"]
    if op == "atom":
        name = _json(data.get("name"), f"{path}.name", "string")
        if name not in atoms:
            raise SceneError(f"{path}: unknown atom {name!r}", atom=name)
        return Atom(name)
    if op == "empty":
        return Empty()
    if _json(op, f"{path}.op", "string") not in NODES:
        raise SceneError(f"{path}: unknown expression op {op!r}", op=op)
    cls, keys, _ = NODES[op]
    kids = [_expr_from_dict(data[key], atoms, f"{path}.{key}") for key in keys]
    if op == "blowup" and data.get("label") is not None:
        _json(data["label"], f"{path}.label", "string")
    return cls(*kids, label=data.get("label")) if op == "blowup" else cls(*kids)


def _expr_to_dict(expr: ScissorExpr) -> dict:
    op = OP_OF.get(type(expr))
    if op:
        out = {"op": op, **dict(zip(NODES[op][1], map(_expr_to_dict, children(expr))))}
        if op == "blowup" and expr.label is not None:
            out["label"] = expr.label
        return out
    if isinstance(expr, Atom):
        return {"op": "atom", "name": expr.name}
    if isinstance(expr, Empty):
        return {"op": "empty"}
    raise TypeError(f"not a scissor expression: {expr!r}")


def _json(value: Any, path: str, kind: str = "object") -> Any:
    return json_value(value, path, kind, SceneError)


def _simplices(value: Any, path: str) -> list[tuple]:
    """A JSON array of simplices, each a JSON array of vertices (not a string)."""
    return [tuple(_json(s, f"{path}[{i}]", "array"))
            for i, s in enumerate(_json(value, path, "array"))]


def _integers(value: Any, path: str) -> tuple[int, ...]:
    """A JSON array of integers."""
    return tuple(json_int(x, f"{path}[{i}]", SceneError)
                 for i, x in enumerate(_json(value, path, "array")))


def _subcomplex_from(parent: SimplicialComplex, maximal: Any, path: str) -> Subcomplex:
    maximal = _simplices(maximal, path)
    try:
        return parent.subcomplex(maximal=maximal)
    except VirtBettiError as exc:
        raise SceneError(f"{path}: {exc.message}", **exc.context) from None


def _strat_model_from_dict(data: Mapping, scene: Scene, raw_strats: Mapping,
                           resolving: set[str], path: str):
    kind = _json(data, path + ", model").get("kind")
    if kind == "compact":
        return CompactModel(scene.complex(_json(data["complex"], path + ", complex", "string")))
    if kind == "declared":
        return DeclaredBeta(parse_polynomial(data["beta"]))
    if kind == "open":
        pair = scene.pair(_json(data["pair"], path + ", pair", "string"))
        boundary_strata = None
        if "boundary_strata" in data and data["boundary_strata"] is not None:
            boundary_strata = yield _resolve_stratification(
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


def _resolve_stratification(name: str, scene: Scene, raw_strats: Mapping,
                            resolving: set[str]):
    """A walk (see ``stratified.walk``) to stratification ``name``, put in ``scene``."""
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
        model = yield _strat_model_from_dict(s.get("model", {}), scene, raw_strats,
                                             resolving, where)
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


def _entries(data: Mapping, section: str, kind: str):
    """(name, spec, path) for each entry of a section, in name order; the
    section and each spec must be JSON objects."""
    entries = _json(data.get(section, {}), section)
    for name in sorted(entries):
        path = f"{kind} {name!r}"
        yield name, _json(entries[name], path), path


def scene_from_dict(data: Mapping) -> Scene:
    """Build and validate a Scene from its JSON dictionary."""
    _json(data, "scene")
    scene = Scene()
    try:
        if data.get("schema_version") != SCHEMA_VERSION:
            raise SceneError(
                f"unsupported schema_version {data.get('schema_version')!r}",
                expected=SCHEMA_VERSION,
            )
        for name, spec, path in _entries(data, "complexes", "complex"):
            scene.complexes[name] = SimplicialComplex.from_maximal(
                _json(spec["vertices"], path + ", vertices", "array"),
                _simplices(spec["maximal_simplices"], path + ", maximal_simplices"),
            )
        for name, spec, path in _entries(data, "pairs", "pair"):
            total = scene.complex(_json(spec["total"], path + ", total", "string"))
            boundary = _subcomplex_from(
                total, spec.get("boundary_maximal", []), path + ", boundary_maximal"
            )
            scene.pairs[name] = PairSpace(total, boundary)
        for name, spec, path in _entries(data, "atoms", "atom"):
            if "model" in spec:
                model = _json(spec["model"], path + ", model", "string")
                scene.atoms[name] = AtomRecord.from_model(name, scene.complex(model), model)
            else:
                beta = parse_polynomial(spec["beta"])
                chi = spec.get("chi_c")
                if chi is not None:
                    json_int(chi, f"{path}: chi_c", SceneError, atom=name)
                provenance = spec.get("provenance", "declared")
                if provenance not in ("declared", "recursive"):  # checked, not coerced
                    raise SceneError(f'{path}: provenance must be "declared" or "recursive"',
                                     atom=name)
                scene.atoms[name] = AtomRecord(
                    name, beta, chi, provenance,
                    compact_nonsingular=_json(spec.get("compact_nonsingular", False),
                                              path + ", compact_nonsingular", "boolean"),
                )
        expressions = _json(data.get("expressions", {}), "expressions")
        for name in sorted(expressions):
            scene.expressions[name] = _expr_from_dict(
                expressions[name], scene.atoms, f"expression {name!r}"
            )
        raw_strats = _json(data.get("stratifications", {}), "stratifications")
        for name in sorted(raw_strats):
            walk(_resolve_stratification(name, scene, raw_strats, set()))
        for name, spec, path in _entries(data, "arrangements", "arrangement"):
            total = scene.complex(_json(spec["total"], path + ", total", "string"))
            pieces = []
            for piece in _json(spec["pieces"], path + ", pieces", "array"):
                piece = _json(piece, path + ", piece")
                pname = _json(piece["name"], path + ", piece name", "string")
                where = f"{path}, piece {pname!r}, maximal_simplices"
                pieces.append((pname, _subcomplex_from(total, piece["maximal_simplices"], where)))
            scene.arrangements[name] = Arrangement(total, tuple(pieces))
        for name, spec, path in _entries(data, "weight_inputs", "weight input"):
            scene.weight_inputs[name] = WeightSystemInput(
                _integers(spec["b"], path + ", b"), _integers(spec["beta"], path + ", beta")
            )
    except VirtBettiError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise SceneError(f"malformed scene: {exc}") from exc
    except RecursionError:
        raise SceneError("scene nests too deeply") from None
    return scene


def scene_to_dict(scene: Scene) -> dict:
    """Canonical JSON dictionary for a scene."""
    def complex_dict(k: SimplicialComplex) -> dict:
        return {
            "vertices": list(k.vertices),
            "maximal_simplices": [list(s) for s in maximal_simplices(k)],
        }

    complex_name, pair_name = _namer(scene.complexes), _namer(scene.pairs)
    out: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    out["complexes"] = {
        name: complex_dict(k) for name, k in sorted(scene.complexes.items())
    }
    out["pairs"] = {
        name: {
            "total": complex_name(pair.total, f"pair {name!r}"),
            "boundary_maximal": [
                list(s)
                for s in maximal_simplices(pair.total, pair.boundary.simplices)
            ],
        }
        for name, pair in sorted(scene.pairs.items())
    }
    atoms = {}
    for name, record in sorted(scene.atoms.items()):
        if record.provenance.startswith("model:"):
            atoms[name] = {"model": record.provenance.split(":", 1)[1]}
        else:
            atoms[name] = {
                "beta": record.beta.to_text(),
                "chi_c": record.chi_c,
                "provenance": record.provenance,
                "compact_nonsingular": record.compact_nonsingular,
            }
    out["atoms"] = atoms
    out["expressions"] = {
        name: _expr_to_dict(e) for name, e in sorted(scene.expressions.items())
    }
    strats = {}
    for name, spec in sorted(scene.stratifications.items()):
        strata = []
        for s in spec.strata:
            model = s.model
            if isinstance(model, CompactModel):
                mdict = {
                    "kind": "compact",
                    "complex": complex_name(model.complex, s.name),
                }
            elif isinstance(model, DeclaredBeta):
                mdict = {"kind": "declared", "beta": model.beta.to_text()}
            else:
                mdict = {
                    "kind": "open",
                    "pair": pair_name(model.pair, s.name),
                    "boundary_nonsingular": model.boundary_nonsingular,
                }
                if model.boundary_strata is not None:
                    mdict["boundary_strata"] = model.boundary_strata.name
            strata.append({"name": s.name, "dim": s.dim, "model": mdict})
        strats[name] = {
            "strata": strata,
            "frontier": {
                src: sorted(targets) for src, targets in sorted(spec.frontier.items())
            },
        }
    out["stratifications"] = strats
    out["arrangements"] = {
        name: {
            "total": complex_name(arr.total, f"arrangement {name!r}"),
            "pieces": [
                {
                    "name": pname,
                    "maximal_simplices": [
                        list(s) for s in maximal_simplices(arr.total, piece.simplices)
                    ],
                }
                for pname, piece in arr.pieces
            ],
        }
        for name, arr in sorted(scene.arrangements.items())
    }
    out["weight_inputs"] = {
        name: {"b": list(w.b), "beta": list(w.beta)}
        for name, w in sorted(scene.weight_inputs.items())
    }
    return out


def _namer(mapping: Mapping[str, Any]):
    """The name of a registered object, the first it is registered under;
    an object not registered takes the first name of an equal one."""
    names: dict[int, str] = {}
    for name, candidate in mapping.items():
        names.setdefault(id(candidate), name)

    def name_of(value: Any, context: str) -> str:
        if id(value) in names:
            return names[id(value)]
        for name, candidate in mapping.items():
            if candidate == value:
                return name
        raise SceneError(f"{context}: object is not registered under a scene name")

    return name_of


def load_scene(path: str) -> Scene:
    return scene_from_dict(read_json(path, "scene file", SceneError))


def dump_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, indent=1, sort_keys=True)
        fh.write("\n")
