"""Reference polynomial parser for the tests: split the text at its signs.

This is how ``virtbetti.polynomial.parse_polynomial`` read a text before it
matched one grammar: refuse a space between two digits, drop every space,
cut the rest into sign-prefixed terms one character at a time, and match
each term on its own.  It is slower on long texts, but it shares no pattern
with the engine, so the two parsers agreeing on random text pins the
grammar, quirks included: ``*t`` reads as t.
"""

from __future__ import annotations

import re

from virtbetti.polynomial import IntPolynomial
from virtbetti.simplicial import MAX_SIMPLICES

_TERM_RE = re.compile(r"([+-]?)([0-9]+)?(?:\*?t(?:\^([0-9]+))?)?")
_SPLIT_NUMBER_RE = re.compile(r"[0-9] +[0-9]")


def parse_polynomial(text: str) -> IntPolynomial:
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
