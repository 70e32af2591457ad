"""Exact dense linear algebra over the two-element field.

A vector's coordinates are the bits of a Python int, so a row operation
is a single XOR regardless of width.  One forward elimination,
``pivot_rows``, serves every caller: the ranks of homology and the
persistence pairs of the Mayer-Vietoris spectral sequence.  It reduces
narrow vectors, pairs ``(low, bits)`` whose bit k is coordinate low + k,
so a row costs the span from its low bit up, not its highest coordinate.
A caller may file a row under its low unbuilt, as any value that is not an
int, and give a ``build`` hook: the elimination builds a filed row the
first time another row meets its key, and never builds one that no row
meets.  ``GF2Matrix`` rows are full width; ``rank`` feeds each as ``(0, row)``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Sequence

from .errors import Record

__all__ = ["GF2Matrix", "rank", "pivot_rows", "reduced_echelon", "kernel_vectors", "span_dim"]


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def pivot_rows(vectors: Iterable[tuple[int, int]], pivots: dict | None = None,
               build: Callable[[object, int], int] | None = None) -> dict:
    """Forward elimination: narrow rows spanning the input, keyed by their low.

    Each vector is a pair ``(low, bits)`` standing for ``bits << low``.  A
    stored row is odd and stands for itself shifted by its key, so rows
    with equal keys are XORed with no shift; the trailing zeros of the
    result move into its low.  Given a dict, the vectors are reduced
    against its rows and their new pivots are added to it in input order,
    so feeding the input in several calls that share one dict gives the
    same dict as one call.  A value that is not an int is a filed row, not
    built yet: the first time a vector meets its key p, ``build(value, p)``
    makes the narrow row, which replaces it.  A filed key no vector meets
    is never built.
    """
    if pivots is None:
        pivots = {}
    for low, v in vectors:
        while v:
            if not v & 1:
                shift = (v & -v).bit_length() - 1
                v >>= shift
                low += shift
            r = pivots.get(low)
            if r is None:
                pivots[low] = v
                break
            if r.__class__ is not int:
                pivots[low] = r = build(r, low)
            v ^= r
    return pivots


# No engine module calls reduced_echelon, span_dim or kernel_vectors.  They
# stay because the benchmark's span tracer looks span_dim and kernel_vectors
# up by name, and kernel_vectors needs reduced_echelon.


def reduced_echelon(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span, pivot columns ascending."""
    pivots = {p: r << p for p, r in pivot_rows(zip(repeat(0), vectors)).items()}
    done = 0  # pivot columns of the rows already reduced
    for p in sorted(pivots, reverse=True):
        # those rows are reduced, so each XOR clears one pivot bit, sets none
        x = pivots[p] & done
        while x:
            pivots[p] ^= pivots[_low_bit(x)]
            x &= x - 1
        done |= 1 << p
    return tuple(pivots[p] for p in sorted(pivots))


def span_dim(vectors: Iterable[int]) -> int:
    """Dimension of the span of the given bit vectors."""
    return len(pivot_rows(zip(repeat(0), vectors)))


def kernel_vectors(row_bits: Sequence[int], cols: int) -> list[int]:
    """Basis of ``{x : row & x has even parity for every row}``, one vector
    per free column j < cols, in ascending j; not echelonized."""
    pivots = {_low_bit(r): r for r in reduced_echelon(row_bits)}
    kernel = {j: 1 << j for j in range(cols) if j not in pivots}
    for p, r in pivots.items():
        x = r ^ (1 << p)
        while x:
            kernel[_low_bit(x)] |= 1 << p
            x &= x - 1
    return list(kernel.values())


class GF2Matrix(Record):
    """Immutable dense matrix over GF(2); row i is the bit mask row_bits[i]."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match row data")
        limit = 1 << self.cols
        for r in self.row_bits:
            if not 0 <= r < limit:
                raise ValueError("row data wider than declared column count")

    def column_bits(self) -> tuple[int, ...]:
        """Columns as bit vectors over the row index."""
        cols = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:
                j = _low_bit(r)
                cols[j] |= 1 << i
                r &= r - 1
        return tuple(cols)

    def transpose(self) -> GF2Matrix:
        return GF2Matrix._trusted(self.cols, self.rows, self.column_bits())


def rank(m: GF2Matrix) -> int:
    """GF(2) rank; the input is not modified."""
    return len(pivot_rows(zip(repeat(0), m.row_bits)))

