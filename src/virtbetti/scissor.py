"""Scissor calculus on classes of real algebraic varieties.

Expressions are trees over named atoms with disjoint-union, product,
closed-difference and blowup nodes; ``NODES`` is their one grammar, read by
evaluation and the scene format.  They are evaluated, never normalized:
the computable invariants are the virtual Poincare polynomial (a ring
homomorphism to Z[t]) and the compactly-supported Euler characteristic (its
value at t = -1, recomputed independently over Z as a cross-check).

Atoms are looked up by name in a plain ``{name: AtomRecord}`` mapping, as a
scene's ``atoms`` section holds them; each is made by the ``AtomRecord``
constructor or by ``AtomRecord.from_model``.

Closedness of the removed part in a difference, and correctness of a
blowup quadruple, are caller assertions recorded in atom provenance; they
are not verified geometrically.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from typing import Union

from .errors import Record, UnknownAtom, Verdict
from .polynomial import IntPolynomial
from .simplicial import SimplicialComplex

__all__ = [
    "AtomRecord",
    "Atom",
    "DisjointUnion",
    "Product",
    "ClosedDifference",
    "Blowup",
    "Empty",
    "ScissorExpr",
    "NODES",
    "OP_OF",
    "children",
    "evaluate_beta",
    "evaluate_chi_c",
    "check_blowup_relation",
    "degree_report",
]

PROVENANCE_KINDS = ("declared", "model", "recursive")


class AtomRecord(Record):
    """A named variety class with known invariants.

    provenance is "declared" (user-supplied analytically), "recursive"
    (computed by the stratified engine) or "model:<name>" (computed from a
    simplicial model by ``from_model``).  chi_c is kept separately from beta
    so that Euler characteristics can be recomputed without touching
    polynomials; left out, it is beta(-1).
    """

    name: str
    beta: IntPolynomial
    chi_c: int | None = None
    provenance: str = "declared"
    compact_nonsingular: bool = False

    def __post_init__(self):
        kind = self.provenance.split(":", 1)[0]
        if kind not in PROVENANCE_KINDS:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.compact_nonsingular and any(c < 0 for c in self.beta.coeffs):
            raise ValueError(
                f"atom {self.name!r} is flagged compact nonsingular but its "
                f"polynomial {self.beta} has a negative coefficient"
            )
        if self.chi_c is None:
            self.__dict__["chi_c"] = self.beta.evaluate(-1)

    @classmethod
    def from_model(cls, name: str, model: SimplicialComplex,
                   model_name: str | None = None) -> AtomRecord:
        """A compact nonsingular atom computed from a simplicial model.

        chi_c comes from the alternating simplex count, independently of the
        homology ranks behind beta.
        """
        return cls(name, model.poincare_polynomial(), model.euler_characteristic(),
                   f"model:{model_name or name}", compact_nonsingular=True)


class Atom(Record):
    name: str


class DisjointUnion(Record):
    left: "ScissorExpr"
    right: "ScissorExpr"


class Product(Record):
    left: "ScissorExpr"
    right: "ScissorExpr"


class ClosedDifference(Record):
    """[total minus closed_part] with closed_part closed in total (asserted)."""

    total: "ScissorExpr"
    closed_part: "ScissorExpr"


class Blowup(Record):
    """Blowup of `base` along `center` with exceptional divisor `exceptional`.

    The node denotes the blown-up variety (optionally labelled); its class
    is base - center + exceptional, the rewriting form of the blowup
    relation.
    """

    base: "ScissorExpr"
    center: "ScissorExpr"
    exceptional: "ScissorExpr"
    label: str | None = None


class Empty(Record):
    pass


ScissorExpr = Union[Atom, DisjointUnion, Product, ClosedDifference, Blowup, Empty]

# The grammar of inner nodes, in one place: each scene-file op names its node
# class, the scene-file keys of its children (the node's leading fields, in
# order) and its rule in the ring.  Atom and Empty are the leaves.
NODES = {
    "union": (DisjointUnion, ("left", "right"), operator.add),
    "product": (Product, ("left", "right"), operator.mul),
    "difference": (ClosedDifference, ("total", "closed"), operator.sub),
    "blowup": (Blowup, ("base", "center", "exceptional"), lambda x, c, e: x - c + e),
}
OP_OF = {cls: op for op, (cls, _, _) in NODES.items()}


def children(node: ScissorExpr) -> tuple:
    """The subexpressions of an inner node, in table order; () for a leaf."""
    op = OP_OF.get(type(node))
    return node._values()[:len(NODES[op][1])] if op else ()


def _evaluate(expr: ScissorExpr, atoms: Mapping[str, AtomRecord], value, zero):
    """Fold the tree into a ring: atoms map through ``value``, Empty to
    ``zero`` and each inner node by its rule in ``NODES``."""
    def walk(node):
        op = OP_OF.get(type(node))
        if op:
            return NODES[op][2](*map(walk, children(node)))
        if type(node) is Atom:
            record = atoms.get(node.name)
            if record is None:
                raise UnknownAtom(f"atom {node.name!r} is not registered", atom=node.name)
            return value(record)
        if type(node) is Empty:
            return zero
        raise TypeError(f"not a scissor expression: {node!r}")

    return walk(expr)


def evaluate_beta(expr: ScissorExpr, atoms: Mapping[str, AtomRecord]) -> IntPolynomial:
    """Virtual Poincare polynomial of the expression."""
    return _evaluate(expr, atoms, lambda atom: atom.beta, IntPolynomial.zero())


def evaluate_chi_c(expr: ScissorExpr, atoms: Mapping[str, AtomRecord]) -> int:
    """Compactly-supported Euler characteristic, computed over Z from each
    atom's own chi_c, independently of the polynomials."""
    return _evaluate(expr, atoms, lambda atom: atom.chi_c, 0)


def check_blowup_relation(
    x: IntPolynomial, c: IntPolynomial, bl: IntPolynomial, e: IntPolynomial
) -> Verdict:
    """Does blowup - exceptional = base - center hold coefficientwise?"""
    lhs, rhs = bl - e, x - c
    if lhs == rhs:
        return Verdict(True, "blowup relation holds")
    diff = lhs - rhs
    bad = next(d for d, coeff in enumerate(diff.coeffs) if coeff != 0)
    return Verdict(
        False,
        f"blowup relation fails first at degree {bad}: "
        f"(bl - e) has t^{bad} coefficient {lhs.coefficient(bad)}, "
        f"(x - c) has {rhs.coefficient(bad)}",
    )


def degree_report(expr: ScissorExpr, atoms: Mapping[str, AtomRecord],
                  claimed_dim: int) -> Verdict:
    """Check degree = claimed dimension with positive leading coefficient.

    A nonempty variety has nonzero class, degree equal to its dimension and
    positive top virtual Betti number; the verdict flags any violation.
    """
    beta = evaluate_beta(expr, atoms)
    if beta.is_zero():
        return Verdict(False, "polynomial is zero: the class of a nonempty variety is never zero")
    if beta.degree != claimed_dim:
        return Verdict(
            False,
            f"degree {beta.degree} does not match claimed dimension {claimed_dim}",
        )
    if beta.leading_coefficient <= 0:
        return Verdict(
            False,
            f"leading coefficient {beta.leading_coefficient} is not positive",
        )
    return Verdict(
        True,
        f"degree {claimed_dim} with leading coefficient {beta.leading_coefficient} > 0",
    )
