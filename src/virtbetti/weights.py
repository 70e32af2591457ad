"""Integer arithmetic of candidate weight-filtration profiles.

A profile for top degree n is a triangular array w(i, j), 0 <= j <= i <= n,
constrained by

    sum_j w(i, j) = b_i            (diagonal sums are the Betti numbers)
    (-1)^j sum_i (-1)^i w(i, j) = beta_j   (row alternating sums are the
                                            virtual Betti numbers)

Every solution is found by a depth-first search that cuts a branch only
when its entries can no longer meet some diagonal or row equation (each
later entry bounded by its b_i), so the list is complete; a budget on the
entries placed refuses systems too large to list.  Forced entries count
too, which bounds time and memory but also refuses any b of 317 or more
entries, whose diagonals i < n alone hold more than the budget.  Further conditions
enter only as linear constraints on the entries, each carrying a
provenance note.

The types ``WeightArray`` and ``WeightSystemInput`` live in ``triangle``,
so that scene loading and the spectral sequence can use them without
importing this search.  The checks of a profile against b and beta
(manifold, virtual Betti, compact nonsingular) are methods of
``WeightArray``.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from .errors import MalformedConstraint, Record, WeightSearchTooLarge, json_int, json_value
from .triangle import WeightArray, WeightSystemInput

__all__ = [
    "LinearConstraint",
    "FilterResult",
    "solve_weight_system",
    "MAX_WEIGHT_NODES",
    "constraint_filter",
]


# Entries the search may place before it refuses, forced ones included:
# counting only the branching ones would let each branch run down a long
# forced tail unbounded.  Every built-in, demo and benchmark system places
# a few hundred at most; at some 200,000 entries a second the refusal comes
# a fraction of a second into the search.
MAX_WEIGHT_NODES = 50_000


def solve_weight_system(inp: WeightSystemInput) -> list[WeightArray]:
    """All nonnegative solutions of the diagonal/row system, sorted
    lexicographically by the (i, j)-flattened entries; [] means infeasible.

    A depth-first search places w(i, j) for the diagonals i < n in flat
    (i, j) order, trying values in ascending order, so solutions come out
    sorted.  Each entry is clipped to what is left of its diagonal and to
    what keeps its row target reachable by the later diagonals, whose
    entries lie in [0, b_i']; the last entry of a diagonal is what is left
    of it, and the row targets force the whole last diagonal.  Raises
    WeightSearchTooLarge once more than MAX_WEIGHT_NODES entries are placed.
    """
    n, b, beta = inp.n, inp.b, inp.beta
    # Adding up the row equations with signs (-1)^j gives
    # sum_i (-1)^i b_i = sum_j (-1)^j beta_j.  Given that identity, the last
    # diagonal forced by the rows always sums to b_n.
    if sum((-1) ** i * (x - y) for i, (x, y) in enumerate(zip(b, beta))):
        return []
    # reach[i][p]: sum of b_i' over i' > i with i' = p mod 2, the most that
    # the diagonals after i add to (or take from) a row's signed sum
    reach = [[0, 0] for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        reach[i] = list(reach[i + 1])
        reach[i][(i + 1) % 2] += b[i + 1]
    target = list(beta)  # what each row's signed sum still needs
    left = list(b)  # what each diagonal still needs
    stack: list[tuple[int, int, int, int]] = []  # (i, j, value, largest value allowed)
    solutions = []
    nodes = 0
    i = j = 0
    while True:
        if i < n:
            # after w(i, j) = value, target[j] -/+ value must lie in [-down, up]
            up, down = reach[i][j % 2], reach[i][1 - j % 2]
            if (i - j) % 2 == 0:
                lo, hi = target[j] - up, target[j] + down
            else:
                lo, hi = -down - target[j], up - target[j]
            lo, hi = max(lo, 0, left[i] if j == i else 0), min(hi, left[i])
        else:
            last = [target[k] if (n - k) % 2 == 0 else -target[k] for k in range(n + 1)]
            if min(last) >= 0:
                flat = [entry[2] for entry in stack] + last
                # row lengths and signs hold by construction: skip the re-check
                solutions.append(WeightArray._trusted(tuple(
                    tuple(flat[d * (d + 1) // 2:(d + 1) * (d + 2) // 2]) for d in range(n + 1)
                )))
            lo, hi = 1, 0
        while lo > hi:  # back to the deepest entry that can still be raised
            if not stack:
                return solutions
            i, j, value, hi = stack.pop()
            target[j] += value if (i - j) % 2 == 0 else -value
            left[i] += value
            lo = value + 1
        nodes += 1
        if nodes > MAX_WEIGHT_NODES:
            raise WeightSearchTooLarge(
                f"the weight-profile search places more than {MAX_WEIGHT_NODES} entries",
                b=list(b), nodes=nodes, limit=MAX_WEIGHT_NODES,
            )
        target[j] -= lo if (i - j) % 2 == 0 else -lo
        left[i] -= lo
        stack.append((i, j, lo, hi))
        i, j = (i, j + 1) if j < i else (i + 1, 0)


_KEY_RE = re.compile(r"w([0-9]+)_([0-9]+)|w([0-9])([0-9])")


def _entry_name(i: int, j: int) -> str:
    """``w21`` for single-digit indices, ``w10_2`` once either has two digits."""
    return f"w{i}{j}" if i < 10 and j < 10 else f"w{i}_{j}"


class LinearConstraint(Record):
    """Integer linear constraint on the entries, e.g. w21 >= 3."""

    coeffs: tuple[tuple[tuple[int, int], int], ...]
    op: str
    rhs: int
    note: str = ""

    def __post_init__(self):
        if self.op not in ("<=", ">=", "=="):
            raise MalformedConstraint(f"unknown comparison {self.op!r}", op=self.op)
        for (i, j), _ in self.coeffs:
            if not 0 <= j <= i:
                raise MalformedConstraint(
                    f"index w({i},{j}) outside the triangle", i=i, j=j
                )
        object.__setattr__(self, "coeffs", tuple(sorted(self.coeffs)))

    @classmethod
    def from_dict(cls, data: Mapping) -> LinearConstraint:
        try:
            lhs = {key: json_int(coeff, f"coefficient of {key!r}", MalformedConstraint)
                   for key, coeff in data["lhs"].items()}
            op, rhs = data["op"], json_int(data["rhs"], "rhs", MalformedConstraint)
        except (AttributeError, KeyError, TypeError) as exc:
            raise MalformedConstraint(
                f"constraint needs an lhs object of integer coefficients, an op "
                f"and an integer rhs: {exc}"
            ) from None
        except RecursionError:  # the repr of a value nested too deeply, for the message
            raise MalformedConstraint("constraint nests too deeply") from None
        json_value(op, "constraint op", "string", MalformedConstraint)
        note = json_value(data.get("note", ""), "constraint note", "string", MalformedConstraint)
        coeffs = []
        for key, coeff in sorted(lhs.items()):
            match = _KEY_RE.fullmatch(key)
            if not match:
                raise MalformedConstraint(
                    f"cannot parse entry name {key!r} (use e.g. 'w21' or 'w2_1')",
                    key=key,
                )
            i, j = (int(g) for g in match.groups() if g is not None)
            coeffs.append(((i, j), coeff))
        return cls(tuple(coeffs), op, rhs, note)

    def to_dict(self) -> dict:
        return {
            "lhs": {_entry_name(i, j): c for (i, j), c in self.coeffs},
            "op": self.op,
            "rhs": self.rhs,
            "note": self.note,
        }

    def evaluate(self, w: WeightArray) -> bool:
        total = 0
        for (i, j), coeff in self.coeffs:
            total += coeff * w.value(i, j)
        if self.op == "<=":
            return total <= self.rhs
        if self.op == ">=":
            return total >= self.rhs
        return total == self.rhs

    def describe(self) -> str:
        terms = []
        for (i, j), coeff in self.coeffs:
            name = _entry_name(i, j)
            terms.append(name if coeff == 1 else f"{coeff}*{name}")
        body = " + ".join(terms) if terms else "0"
        text = f"{body} {self.op} {self.rhs}"
        return f"{text} ({self.note})" if self.note else text


class FilterResult(Record):
    survivors: tuple[WeightArray, ...]
    eliminations: tuple[tuple[WeightArray, LinearConstraint], ...]

    @property
    def infeasible(self) -> bool:
        return not self.survivors

    def blocking_constraints(self) -> list[LinearConstraint]:
        seen: list[LinearConstraint] = []
        for _, c in self.eliminations:
            if c not in seen:
                seen.append(c)
        return seen


def constraint_filter(
    solutions: Sequence[WeightArray], constraints: Sequence[LinearConstraint], n: int
) -> FilterResult:
    """Keep the solutions satisfying every constraint; record what was cut.

    n is the input's top degree: a constraint on an entry beyond it is
    malformed, whether or not there is a solution to evaluate it on.
    """
    for c in constraints:
        for (i, j), _ in c.coeffs:
            if i > n:
                raise MalformedConstraint(
                    f"constraint mentions w({i},{j}) beyond top degree {n}", i=i, j=j
                )
    survivors = []
    eliminations = []
    for w in solutions:
        violated = next((c for c in constraints if not c.evaluate(w)), None)
        if violated is None:
            survivors.append(w)
        else:
            eliminations.append((w, violated))
    return FilterResult(tuple(survivors), tuple(eliminations))
