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

# the grammar that ``parse_polynomial`` states: no text matches it two ways,
# and no two runs of spaces meet, so a failed match backtracks in linear time.
# A number has at most 4,300 digits, CPython's default limit on int(str)
_NUMBER = "[0-9]{1,4300}"
_T_PART = rf"(?:\* *)?t(?: *\^ *{_NUMBER})?"
_BODY = rf"(?:{_NUMBER}(?: *{_T_PART})?|{_T_PART})"
_GRAMMAR = re.compile(rf" *(?:[+-] *)?{_BODY}(?: *[+-] *{_BODY})* *")
# one term of a text that matched the grammar, its spaces removed
_TERM_RE = re.compile(r"([+-]?)(?=[0-9*t])([0-9]*)\*?(t?)(?:\^([0-9]+))?")


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

    The text is an optional sign and a term, then any number of further
    terms, each with a sign.  A term is ASCII digits, or ``t``, or both with
    an optional ``*`` between them, and optionally ``^`` and ASCII digits
    after ``t``.  Spaces may stand between any two of these tokens, but not
    inside a number, and a number has at most 4,300 digits, CPython's
    default limit for ``int`` of a string.  Raises ValueError for anything but a string, for any
    text outside that grammar, and for an exponent above
    ``simplicial.MAX_SIMPLICES`` before any coefficient is stored: no complex
    under that cap has homology so high, and the dense coefficients of a
    nine-digit power of t would take gigabytes.
    """
    from .simplicial import MAX_SIMPLICES  # Z[t] arithmetic alone compiles no homology

    if not isinstance(text, str):
        raise ValueError(f"polynomial text must be a string, not {type(text).__name__}")
    if not _GRAMMAR.fullmatch(text):
        raise ValueError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for sign, digits, t, power in _TERM_RE.findall(text.replace(" ", "")):
        degree = int(power or 1) if t else 0
        if degree > MAX_SIMPLICES:
            raise ValueError(f"exponent {degree} exceeds {MAX_SIMPLICES} in {text!r}")
        coeffs[degree] = coeffs.get(degree, 0) + int(sign + (digits or "1"))
    return IntPolynomial(coeffs.get(d, 0) for d in range(max(coeffs) + 1))
