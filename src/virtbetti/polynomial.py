"""Exact arithmetic in the integer polynomial ring Z[t].

Values of the virtual Poincare polynomial live here.  Coefficients may be
negative; Python ints keep everything exact at any size.  The zero
polynomial has an empty coefficient tuple and degree NEG_INFINITY (a
genuine minus-infinity marker, never the integer -1).
"""

from __future__ import annotations

import re
from typing import Iterable

__all__ = ["IntPolynomial", "NEG_INFINITY", "parse_polynomial"]

NEG_INFINITY = float("-inf")

_TERM_RE = re.compile(r"([+-]?)([0-9]+)?(?:\*?t(?:\^([0-9]+))?)?")
_SPLIT_NUMBER_RE = re.compile(r"[0-9] +[0-9]")


class IntPolynomial:
    """Immutable integer polynomial in one variable t, ascending coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficient {c!r} is not an integer")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> IntPolynomial:
        return cls(())

    @classmethod
    def monomial(cls, coefficient: int, degree: int) -> IntPolynomial:
        if degree < 0:
            raise ValueError("negative degree")
        return cls((0,) * degree + (coefficient,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self):
        """Degree as an int, or NEG_INFINITY for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        return self._coeffs[-1] if self._coeffs else 0

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self._coeffs):
            return self._coeffs[degree]
        return 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c == 0:
                continue
            for j, d in enumerate(b):
                out[i + j] += c * d
        return IntPolynomial(out)

    def evaluate(self, x: int) -> int:
        """Exact integer evaluation by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self._coeffs))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        """Render as e.g. ``4 - t + 3*t^2`` (ascending degree, explicit signs)."""
        if not self._coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            elif d == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{d}" if mag == 1 else f"{mag}*t^{d}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def parse_polynomial(text: str) -> IntPolynomial:
    """Inverse of IntPolynomial.to_text; accepts e.g. ``-2 + 2*t`` or ``t^3``.

    Digits are ASCII and spaces, which may not split a number, are the only
    characters skipped.  Raises
    ValueError for anything but a string, for any other text outside that
    form, and for an exponent above ``simplicial.MAX_SIMPLICES`` before any
    coefficient is stored: no complex under that cap has homology so high,
    and the dense coefficients of a nine-digit power of t would take
    gigabytes.
    """
    from .simplicial import MAX_SIMPLICES  # Z[t] arithmetic alone compiles no homology

    if not isinstance(text, str):
        raise ValueError(f"polynomial text must be a string, not {type(text).__name__}")
    if _SPLIT_NUMBER_RE.search(text):  # "1 2" is not 12
        raise ValueError(f"cannot parse {text!r}: a space splits a number")
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial text")
    # split into sign-prefixed terms
    terms: list[str] = []
    current = ""
    for ch in stripped:
        if ch in "+-" and current and current[-1] not in "+-":
            terms.append(current)
            current = ch
        else:
            current += ch
    terms.append(current)
    coeffs: dict[int, int] = {}
    for term in terms:
        match = _TERM_RE.fullmatch(term)
        if not match or (match.group(2) is None and "t" not in term):
            raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
        sign = -1 if match.group(1) == "-" else 1
        coeff = int(match.group(2)) if match.group(2) is not None else 1
        if "t" not in term:
            degree = 0
        elif match.group(3) is not None:
            degree = int(match.group(3))
            if degree > MAX_SIMPLICES:
                raise ValueError(f"exponent {degree} exceeds {MAX_SIMPLICES} in {text!r}")
        else:
            degree = 1
        coeffs[degree] = coeffs.get(degree, 0) + sign * coeff
    top = max(coeffs)
    return IntPolynomial(tuple(coeffs.get(d, 0) for d in range(top + 1)))
