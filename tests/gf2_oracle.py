"""Reference GF(2) elimination for the tests: reduce each new vector
against the rows so far, then back-substitute it into every row at once.

This is the insertion-time reduction ``virtbetti.gf2`` used before its
forward-elimination kernel.  It is slow but simple, and reduced row-echelon
form is unique, so the kernel's ``reduced_echelon`` must equal it bit for
bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def reduced_echelon(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span, pivot columns ascending."""
    rows: list[tuple[int, int]] = []  # (pivot column, vector)
    for v in vectors:
        for p, r in rows:
            if (v >> p) & 1:
                v ^= r
        if v:
            p = _low_bit(v)
            rows = [(q, r ^ v if (r >> p) & 1 else r) for q, r in rows]
            rows.append((p, v))
    rows.sort()
    return tuple(r for _, r in rows)


def kernel_vectors(row_bits: Sequence[int], cols: int) -> list[int]:
    """Basis of ``{x : row & x has even parity for every row}``, echelonized."""
    basis = reduced_echelon(row_bits)
    pivots = [_low_bit(r) for r in basis]
    pivot_set = set(pivots)
    out = []
    for j in range(cols):
        if j in pivot_set:
            continue
        v = 1 << j
        for p, r in zip(pivots, basis):
            if (r >> j) & 1:
                v |= 1 << p
        out.append(v)
    return list(reduced_echelon(out))
