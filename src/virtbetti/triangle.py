"""Triangular weight arrays and the inputs of a weight system.

A ``WeightArray`` is a candidate of the weight-profile search in
``weights`` or the E_infinity profile of a Mayer-Vietoris cover in
``spectral``; a ``WeightSystemInput`` is what a scene file declares.  Both
live here, apart from either engine, so that loading a scene or building a
spectral sequence does not import the weight search.  A ``WeightArray``
checks its own conditions (no weight below the diagonal, row sums equal
to the virtual Betti numbers, the diagonal profile of a compact
nonsingular variety), each returning a ``Verdict``.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

from .errors import Record, Verdict

__all__ = ["WeightArray", "WeightSystemInput"]


class WeightSystemInput(Record):
    """Betti numbers b_0..b_n and virtual Betti numbers beta_0..beta_n."""

    b: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        # stored as tuples, so inputs given as lists compare and hash as equal
        fields = self.__dict__
        fields["b"], fields["beta"] = tuple(self.b), tuple(self.beta)
        if len(self.b) != len(self.beta):
            raise ValueError("b and beta must have the same length")
        if not self.b:
            raise ValueError("empty weight system")
        if any(x < 0 for x in self.b):
            raise ValueError("Betti numbers must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.b) - 1


class WeightArray(Record):
    """Triangular array rows[i] = (w(i,0), ..., w(i,i)): a candidate of the
    search, or the E_infinity profile of a Mayer-Vietoris cover."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # stored as tuples, so rows given as lists compare and hash as equal
        self.__dict__["rows"] = tuple(map(tuple, self.rows))
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

    @property
    def w(self) -> dict[tuple[int, int], int]:
        """{(i, j): w(i, j)} for the nonzero entries, in (i, j) order."""
        return {(i, j): x for i, row in enumerate(self.rows) for j, x in enumerate(row) if x}

    def diagonal_sums(self) -> list[int]:
        return [sum(row) for row in self.rows]

    def row_alternating_sums(self) -> list[int]:
        """(-1)^j sum_i (-1)^i w(i, j) for each j."""
        n = self.n
        return [
            sum((-1) ** (i - j) * self.rows[i][j] for i in range(j, n + 1))
            for j in range(n + 1)
        ]

    def check_manifold(self) -> Verdict:
        """All weight below the diagonal vanishes."""
        below = next((f"w({i},{j}) = {x}" for (i, j), x in self.w.items() if j < i), None)
        if below:
            return Verdict(False, f"below-diagonal entry {below} is nonzero")
        return Verdict(True, "all below-diagonal entries vanish")

    def check_virtual_betti(self, beta: Sequence[int]) -> Verdict:
        """Do the row alternating sums equal the virtual Betti numbers?

        Missing rows on either side count as zero; fails with the first
        offending row named.  For covers whose induced filtration mixes
        weights under a nonzero d_2 this is expected to fail.
        """
        sums = self.row_alternating_sums()
        for j, (have, want) in enumerate(zip_longest(sums, beta, fillvalue=0)):
            if have != want:
                return Verdict(False, f"virtual Betti condition fails at row j={j}: "
                                      f"alternating sum {have} != beta_{j} = {want}")
        return Verdict(True, "row alternating sums match the virtual Betti numbers")

    def check_compact_nonsingular(self, inp: WeightSystemInput) -> Verdict:
        """Diagonal with w(i,i) = b_i = beta_i, the profile of a compact
        nonsingular variety (McCrory-Parusinski)."""
        if self.n != inp.n:
            return Verdict(False, f"profile has top degree {self.n}, the input {inp.n}")
        diagonal = {(i, i): b for i, b in enumerate(inp.b) if b}
        ok = self.w == diagonal and list(inp.b) == list(inp.beta)
        return Verdict(
            ok,
            "profile is diagonal with w(i,i) = b_i = beta_i" if ok
            else "profile is not concentrated on the diagonal with b = beta",
        )

    def triangle_lines(self) -> list[str]:
        """The triangular layout, top row j = n first."""
        n = self.n
        lines = []
        for j in range(n, -1, -1):
            entries = [str(self.rows[i][j]) for i in range(j, n + 1)]
            lines.append(" ".join(entries))
        return lines
