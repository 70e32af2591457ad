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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import MalformedConstraint, Verdict, WeightSearchTooLarge
from .spectral import FiltrationProfile

__all__ = [
    "WeightSystemInput",
    "WeightArray",
    "LinearConstraint",
    "FilterResult",
    "solve_weight_system",
    "MAX_WEIGHT_NODES",
    "check_conditions",
    "constraint_filter",
    "mv_profile_vs_virtual_betti",
]


@dataclass(frozen=True)
class WeightSystemInput:
    """Betti numbers b_0..b_n and virtual Betti numbers beta_0..beta_n."""

    b: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != len(self.beta):
            raise ValueError("b and beta must have the same length")
        if not self.b:
            raise ValueError("empty weight system")
        if any(x < 0 for x in self.b):
            raise ValueError("Betti numbers must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.b) - 1


@dataclass(frozen=True)
class WeightArray:
    """Triangular array rows[i] = (w(i,0), ..., w(i,i))."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != i + 1:
                raise ValueError("row lengths must be 1, 2, ..., n+1")
            if any(x < 0 for x in row):
                raise ValueError("weight entries must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def value(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def flat(self) -> tuple[int, ...]:
        """Entries in lexicographic (i, j) order; the canonical sort key."""
        return tuple(x for row in self.rows for x in row)

    def diagonal_sums(self) -> list[int]:
        return [sum(row) for row in self.rows]

    def row_alternating_sums(self) -> list[int]:
        """(-1)^j sum_i (-1)^i w(i, j) for each j."""
        n = self.n
        return [
            sum((-1) ** (i - j) * self.rows[i][j] for i in range(j, n + 1))
            for j in range(n + 1)
        ]

    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j] == 0 for i in range(self.n + 1) for j in range(i)
        )

    def triangle_lines(self) -> list[str]:
        """The triangular layout, top row j = n first."""
        n = self.n
        lines = []
        for j in range(n, -1, -1):
            entries = [str(self.rows[i][j]) for i in range(j, n + 1)]
            lines.append(" ".join(entries))
        return lines


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
                solutions.append(WeightArray(tuple(
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


def check_conditions(
    w: WeightArray, inp: WeightSystemInput, flags: Iterable[str] = ("manifold", "virtual-betti")
) -> dict[str, Verdict]:
    """Per-condition verdicts for a candidate profile.

    "manifold": all weight below the diagonal vanishes (expected for models
    of compact nonsingular varieties).  "virtual-betti": the row equations
    themselves.  "compact-nonsingular": diagonal with w(i,i) = b_i = beta_i.
    """
    report: dict[str, Verdict] = {}
    for flag in flags:
        if flag == "manifold":
            bad = [
                (i, j)
                for i in range(w.n + 1)
                for j in range(i)
                if w.value(i, j) != 0
            ]
            if bad:
                i, j = bad[0]
                report[flag] = Verdict(
                    False, f"below-diagonal entry w({i},{j}) = {w.value(i, j)} is nonzero"
                )
            else:
                report[flag] = Verdict(True, "all below-diagonal entries vanish")
        elif flag == "virtual-betti":
            sums = w.row_alternating_sums()
            diag = w.diagonal_sums()
            ok = sums == list(inp.beta) and diag == list(inp.b)
            report[flag] = Verdict(
                ok,
                "row and diagonal equations hold"
                if ok
                else f"row sums {sums} vs beta {list(inp.beta)}; "
                     f"diagonal sums {diag} vs b {list(inp.b)}",
            )
        elif flag == "compact-nonsingular":
            ok = w.is_diagonal() and all(
                w.value(i, i) == inp.b[i] == inp.beta[i] for i in range(w.n + 1)
            )
            report[flag] = Verdict(
                ok,
                "profile is diagonal with w(i,i) = b_i = beta_i"
                if ok
                else "profile is not concentrated on the diagonal with b = beta",
            )
        else:
            raise MalformedConstraint(f"unknown condition flag {flag!r}", flag=flag)
    return report


_KEY_RE = re.compile(r"^w(\d+)_(\d+)$|^w(\d)(\d)$")


def _entry_name(i: int, j: int) -> str:
    """``w21`` for single-digit indices, ``w10_2`` once either has two digits."""
    return f"w{i}{j}" if i < 10 and j < 10 else f"w{i}_{j}"


@dataclass(frozen=True)
class LinearConstraint:
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
            lhs = {key: int(coeff) for key, coeff in data["lhs"].items()}
            op, rhs = data["op"], int(data["rhs"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedConstraint(
                f"constraint needs an lhs object of integer coefficients, an op "
                f"and an integer rhs: {exc}"
            ) from None
        coeffs = []
        for key, coeff in sorted(lhs.items()):
            match = _KEY_RE.match(key)
            if not match:
                raise MalformedConstraint(
                    f"cannot parse entry name {key!r} (use e.g. 'w21' or 'w2_1')",
                    key=key,
                )
            i, j = (int(g) for g in match.groups() if g is not None)
            coeffs.append(((i, j), coeff))
        return cls(tuple(coeffs), op, rhs, str(data.get("note", "")))

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
            if i > w.n:
                raise MalformedConstraint(
                    f"constraint mentions w({i},{j}) beyond top degree {w.n}", i=i, j=j
                )
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


@dataclass(frozen=True)
class FilterResult:
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
    solutions: Sequence[WeightArray], constraints: Sequence[LinearConstraint]
) -> FilterResult:
    """Keep the solutions satisfying every constraint; record what was cut."""
    survivors = []
    eliminations = []
    for w in solutions:
        violated = next((c for c in constraints if not c.evaluate(w)), None)
        if violated is None:
            survivors.append(w)
        else:
            eliminations.append((w, violated))
    return FilterResult(tuple(survivors), tuple(eliminations))


def mv_profile_vs_virtual_betti(
    profile: FiltrationProfile, beta: Sequence[int]
) -> Verdict:
    """Do the profile's row alternating sums equal the virtual Betti numbers?

    Fails with the first offending row named; for covers whose induced
    filtration mixes weights under a nonzero d_2 this is expected to fail.
    """
    sums = profile.row_alternating_sums()
    top = max(len(sums), len(beta))
    for j in range(top):
        have = sums[j] if j < len(sums) else 0
        want = beta[j] if j < len(beta) else 0
        if have != want:
            return Verdict(
                False,
                f"virtual Betti condition fails at row j={j}: "
                f"alternating sum {have} != beta_{j} = {want}",
            )
    return Verdict(True, "row alternating sums match the virtual Betti numbers")
