"""Exact dense linear algebra over the two-element field.

Vectors are Python ints used as bit masks (bit k = coordinate k), so a row
operation is a single word-wide XOR regardless of width.  One forward
elimination, ``pivot_rows``, serves every caller: the ranks of homology and
the persistence pairs of the Mayer-Vietoris spectral sequence.
``GF2Matrix`` carries a boundary matrix and its transpose to ``rank``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import Record

__all__ = ["GF2Matrix", "rank", "pivot_rows", "reduced_echelon", "kernel_vectors", "span_dim"]


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def pivot_rows(vectors: Iterable[int], pivots: dict[int, int] | None = None) -> dict[int, int]:
    """Forward elimination: rows spanning the input, keyed by their low bit.

    Given a dict, the vectors are reduced against its rows and their new
    pivots are added to it in input order, so feeding the input in several
    calls that share one dict gives the same dict as one call.
    """
    if pivots is None:
        pivots = {}
    for v in vectors:
        while v:
            p = (v & -v).bit_length() - 1
            r = pivots.get(p)
            if r is None:
                pivots[p] = v
                break
            v ^= r
    return pivots


# No engine module calls reduced_echelon, span_dim or kernel_vectors.  They
# stay because the benchmark's span tracer looks span_dim and kernel_vectors
# up by name, and kernel_vectors needs reduced_echelon.


def reduced_echelon(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span, pivot columns ascending."""
    pivots = pivot_rows(vectors)
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
    return len(pivot_rows(vectors))


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
        return GF2Matrix(self.cols, self.rows, self.column_bits())


def rank(m: GF2Matrix) -> int:
    """GF(2) rank; the input is not modified."""
    return len(pivot_rows(m.row_bits))

