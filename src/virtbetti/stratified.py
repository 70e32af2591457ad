"""Virtual Poincare polynomials from compactifications and stratifications.

The engine never chooses a compactification or a stratification; the
caller supplies them and the engine evaluates and cross-checks.  A compact
nonsingular stratum contributes its Poincare polynomial; an open
nonsingular stratum presented as a pair (compactification, complement)
contributes P(total) minus the polynomial of the complement, which is in
turn either a Poincare polynomial (complement asserted compact
nonsingular) or the value of a supplied stratification of the complement;
dimension-0 strata contribute their point counts.  ``walk`` follows a
chain of such stratifications from a list, so its length is bounded by
memory, not by the interpreter's stack.

Degree checks (degree = declared dimension, positive leading coefficient)
are warnings by default and errors in strict mode; ``refinement_check``
compares polynomials only.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DimensionMismatch,
    InvalidStratification,
    MissingBoundaryData,
    MissingIntersection,
    NotAPartition,
    Record,
    Verdict,
)
from .polynomial import IntPolynomial
from .simplicial import PairSpace, SimplicialComplex

__all__ = [
    "CompactModel",
    "OpenModel",
    "DeclaredBeta",
    "StratumRecord",
    "StratifiedSpec",
    "beta_of_stratum",
    "beta_of_stratified",
    "inclusion_exclusion",
    "refinement_check",
]


class CompactModel(Record):
    """Model of a compact nonsingular stratum (caller's assertion)."""

    complex: SimplicialComplex


class OpenModel(Record):
    """Open nonsingular stratum as a nonsingular compactification pair.

    If the complement is not itself compact nonsingular the caller must set
    boundary_nonsingular=False and supply boundary_strata; otherwise the
    complement's Poincare polynomial is used directly.
    """

    pair: PairSpace
    boundary_nonsingular: bool = True
    boundary_strata: "StratifiedSpec | None" = None


class DeclaredBeta(Record):
    """Directly declared polynomial, for strata known analytically."""

    beta: IntPolynomial


StratumModel = Union[CompactModel, OpenModel, DeclaredBeta]


class StratumRecord(Record):
    name: str
    dim: int
    model: StratumModel


class StratifiedSpec(Record):
    """A stratification: named strata plus the frontier relation.

    The frontier of a stratum must consist of strata of strictly smaller
    dimension, which makes the relation acyclic.
    """

    name: str
    strata: tuple[StratumRecord, ...]
    frontier: Mapping[str, frozenset[str]]

    def __init__(self, *args, **kwargs):
        if len(args) < 3:  # no frontier given: a fresh empty one
            kwargs.setdefault("frontier", {})
        super().__init__(*args, **kwargs)

    def __post_init__(self):
        by_name = {s.name: s for s in self.strata}
        if len(by_name) != len(self.strata):
            raise InvalidStratification(
                f"duplicate stratum name in {self.name!r}", stratification=self.name
            )
        for src, targets in self.frontier.items():
            if src not in by_name:
                raise InvalidStratification(
                    f"frontier source {src!r} is not a stratum", stratification=self.name
                )
            # not in hash order, so which unknown target is named is fixed; by
            # repr, as targets read from a scene file may mix JSON types
            for t in sorted(targets, key=repr):
                if t not in by_name:
                    raise InvalidStratification(
                        f"frontier target {t!r} is not a stratum", stratification=self.name
                    )
                if by_name[t].dim >= by_name[src].dim:
                    raise InvalidStratification(
                        f"frontier of {src!r} contains {t!r} of dimension "
                        f"{by_name[t].dim} >= {by_name[src].dim}",
                        stratification=self.name,
                    )

    def stratum(self, name: str) -> StratumRecord:
        for s in self.strata:
            if s.name == name:
                return s
        raise KeyError(name)


def _note_mismatch(message: str, strict: bool, warnings: list[str] | None, **context):
    if strict:
        raise DimensionMismatch(message, **context)
    if warnings is not None:
        warnings.append(message)


def walk(root):
    """The value of ``root``, a generator that yields each sub-walk (such a
    generator too) and is sent its value: recursion with a list for a stack."""
    stack, value = [root], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as stop:
            stack.pop()
            value = stop.value
    return value


def beta_of_stratum(stratum: StratumRecord, *, strict: bool = False) -> IntPolynomial:
    """Virtual Poincare polynomial of one stratum from its model."""
    return walk(_beta_of_stratum(stratum, None, strict, None, {}))


def _beta_of_stratum(stratum: StratumRecord, stratification: str | None, strict: bool,
                     warnings: list[str] | None, done: dict[int, IntPolynomial]):
    """A walk (see ``walk``) to the stratum's polynomial."""
    # strata of different stratifications may share a name: name both
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
            boundary_beta = yield _beta_of_stratified(model.boundary_strata, strict, warnings, done)
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

    if beta.is_zero():
        if stratum.dim >= 0:
            _note_mismatch(
                f"{where}: polynomial is zero but dimension {stratum.dim} was declared",
                strict, warnings, **context,
            )
    elif beta.degree != stratum.dim or beta.leading_coefficient <= 0:
        _note_mismatch(
            f"{where}: polynomial {beta} has degree "
            f"{beta.degree} and leading coefficient {beta.leading_coefficient}, "
            f"declared dimension is {stratum.dim}",
            strict, warnings, **context,
        )
    return beta


def beta_of_stratified(
    spec: StratifiedSpec, *, strict: bool = False, warnings: list[str] | None = None
) -> IntPolynomial:
    """Sum of the strata's polynomials, with a degree check against the
    largest declared stratum dimension."""
    return walk(_beta_of_stratified(spec, strict, warnings, {}))


def _beta_of_stratified(spec: StratifiedSpec, strict: bool, warnings: list[str] | None,
                        done: dict[int, IntPolynomial]):
    """A walk to the stratification's polynomial.  ``done`` holds each one
    walked so far, by id: two strata may share one ``boundary_strata``, and a
    chain of such diamonds would otherwise be walked once per path, 2^k times."""
    if id(spec) in done:
        return done[id(spec)]
    total = IntPolynomial.zero()
    for stratum in spec.strata:
        total = total + (yield _beta_of_stratum(stratum, spec.name, strict, warnings, done))
    if spec.strata:
        top = max(s.dim for s in spec.strata)
        if total.degree != top or total.leading_coefficient <= 0:
            _note_mismatch(
                f"stratification {spec.name!r}: total polynomial {total} does not "
                f"have degree {top} with positive leading coefficient",
                strict, warnings, stratification=spec.name,
            )
    done[id(spec)] = total
    return total


def inclusion_exclusion(
    pieces: Sequence[tuple[str, IntPolynomial]],
    intersections: Mapping[frozenset, IntPolynomial],
) -> IntPolynomial:
    """Alternating sum over all nonempty index subsets of a closed cover.

    ``pieces`` supplies the singletons; ``intersections`` must provide a
    polynomial for every index subset of size >= 2 (use the zero polynomial
    for an empty intersection).  Indices refer to positions in ``pieces``.
    """
    m = len(pieces)
    total = IntPolynomial.zero()
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            if size == 1:
                value = pieces[subset[0]][1]
            else:
                key = frozenset(subset)
                if key not in intersections:
                    names = "&".join(pieces[i][0] for i in subset)
                    raise MissingIntersection(
                        f"no polynomial supplied for intersection {names}",
                        subset=sorted(subset),
                    )
                value = intersections[key]
            total = total + (value if size % 2 == 1 else -value)
    return total


def refinement_check(
    coarse: StratifiedSpec,
    fine: StratifiedSpec,
    mapping: Mapping[str, Iterable[str]],
) -> Verdict:
    """Check that a refinement is compatible stratum by stratum.

    ``mapping`` sends each coarse stratum to the fine strata refining it and
    must partition the fine strata; the verdict holds iff every coarse
    stratum's polynomial equals the sum over its fine strata.  Only the
    polynomials are compared: no degree check is run.
    """
    mapping = {src: list(targets) for src, targets in mapping.items()}  # read each value once
    fine_names = [s.name for s in fine.strata]
    assigned: list[str] = []
    for src in mapping:
        coarse.stratum(src)  # KeyError -> genuine misuse
        assigned.extend(mapping[src])
    missing = set(fine_names) - set(assigned)
    duplicated = {n for n in assigned if assigned.count(n) > 1}
    unknown = set(assigned) - set(fine_names)
    if missing or duplicated or unknown or set(mapping) != {s.name for s in coarse.strata}:
        raise NotAPartition(
            "mapping does not partition the fine strata",
            missing=sorted(missing),
            duplicated=sorted(duplicated),
            unknown=sorted(unknown),
        )
    done: dict[int, IntPolynomial] = {}  # one memo for the strata of both sides
    total = IntPolynomial.zero()
    for stratum in coarse.strata:
        lhs = walk(_beta_of_stratum(stratum, coarse.name, False, None, done))
        rhs = sum((walk(_beta_of_stratum(fine.stratum(name), fine.name, False, None, done))
                   for name in mapping[stratum.name]), IntPolynomial.zero())
        if lhs != rhs:
            return Verdict(
                False,
                f"stratum {stratum.name!r}: {lhs} differs from refinement sum {rhs}",
            )
        total = total + lhs
    return Verdict(True, f"refinement compatible; total {total}")
