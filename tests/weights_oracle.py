"""Reference weight-system solver for the tests: the product of row
compositions.

This is how ``virtbetti.weights.solve_weight_system`` found every profile
before it searched depth first: each diagonal i is one of the compositions
of b_i into i + 1 nonnegative parts, every combination of them is built as
a ``WeightArray``, and the arrays whose row alternating sums equal beta are
kept, sorted by their flattened entries.  It builds all
prod_i C(b_i + i, i) arrays, so it suits only small b.
"""

from __future__ import annotations

from itertools import product as iter_product

from virtbetti.weights import WeightArray, WeightSystemInput


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def solve_weight_system(inp: WeightSystemInput) -> list[WeightArray]:
    """All nonnegative solutions of the diagonal/row system, sorted
    lexicographically by the (i, j)-flattened entries."""
    n = inp.n
    solutions = []
    row_choices = [sorted(_compositions(inp.b[i], i + 1)) for i in range(n + 1)]
    for rows in iter_product(*row_choices):
        arr = WeightArray(tuple(rows))
        if arr.row_alternating_sums() == list(inp.beta):
            solutions.append(arr)
    solutions.sort(key=WeightArray.flat)
    return solutions
