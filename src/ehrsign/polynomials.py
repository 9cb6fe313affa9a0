"""Dense univariate polynomials with exact integer or rational coefficients.

Coefficients are Python ints or fractions.Fraction (auto-reduced, positive
denominator), so equality is structural.  Everything here is immutable and
pure; degrees stay small (at most a few dozen) so dense storage is fine.
Ehrhart polynomials keep integer-coefficient numerators over one
denominator (`ehrhart.EhrhartPoly`), so their arithmetic here is on ints;
Fraction coefficients appear only in their public `.poly` view and in
rational inputs such as `binom_poly`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Coeff = Union[int, Fraction]


_INT_ONLY = frozenset({int})


def _norm_coeff(c: Coeff) -> Coeff:
    if type(c) is int:  # the common case; skips the ABC isinstance check
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """A polynomial stored as a coefficient tuple, index i = coeff of x^i.

    Trailing zeros are trimmed; the zero polynomial is the single coeff 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = (0,)):
        cs = list(coeffs)
        if set(map(type, cs)) != _INT_ONLY:  # all-int input is already normal
            cs = [_norm_coeff(c) for c in cs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls((0,))

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coeff: Coeff = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        return cls((0,) * exponent + (coeff,))

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports degree 0."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Coeff:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):  # the longer factor in the inner loop
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b, i):
                    out[k] += ca * cb
        return Poly(out)

    def scale(self, c: Coeff) -> "Poly":
        return Poly(tuple(c * x for x in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly((0,) * k + self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, v: Coeff) -> Coeff:
        """Exact Horner evaluation."""
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return _norm_coeff(acc)

    def compose_scale(self, r: int) -> "Poly":
        """Return p(r*t): coefficient of t^i multiplied by r^i."""
        if r < 1:
            raise ValueError("dilation factor must be a positive integer")
        cs = self.coeffs
        out = [cs[0]]
        power = 1
        for c in cs[1:]:
            power *= r
            out.append(c * power)
        return Poly(out)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    def __str__(self) -> str:
        return poly_to_text(self)


def falling_poly(shift: int, d: int) -> Poly:
    """Expand (t+shift)(t+shift-1)...(t+shift-d+1) = d! * binom(t+shift, d),
    an integer polynomial in t of degree d."""
    if d < 0:
        raise ValueError("invalid dimension: d must be >= 0")
    p = Poly.one()
    for i in range(d):
        p = p * Poly((shift - i, 1))
    return p


def binom_poly(shift: int, d: int) -> Poly:
    """Expand binom(t+shift, d) as a polynomial in t.

    Equals (t+shift)(t+shift-1)...(t+shift-d+1)/d!; degree d, leading
    coefficient 1/d!.
    """
    return falling_poly(shift, d).scale(Fraction(1, math.factorial(d)))


def decimal_str(x: int) -> str:
    """str(x) for an int of any size, independent of the interpreter's
    int-to-str limit (sys.int_max_str_digits), which it neither reads nor
    changes: divmod by a power of ten splits x into parts of at most 602
    digits, below the smallest limit Python allows (640)."""
    if x.bit_length() <= 2000:
        return str(x)
    if x < 0:
        return "-" + decimal_str(-x)
    k = x.bit_length() * 3 // 20  # about half of x's digits
    hi, lo = divmod(x, 10**k)
    return decimal_str(hi) + decimal_str(lo).zfill(k)


def _coeff_str(c: Coeff) -> str:
    """str(c) for an int or Fraction coefficient, built from `decimal_str`
    so that it, too, ignores the int-to-str limit."""
    if isinstance(c, Fraction):
        return f"{decimal_str(c.numerator)}/{decimal_str(c.denominator)}"
    return decimal_str(c)


def poly_to_text(p: Poly, var: str = "x") -> str:
    """Render terms joined by " + " / " - ", ascending degree.

    E.g. "1 + 7*x^3 + 9*x^4 + 3*x^5"; rational coefficients as "p/q".
    Integers of any size are written out whatever the int-to-str limit.
    """
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = _coeff_str(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if mag == 1 else f"{_coeff_str(mag)}*{power}"
        parts.append((c < 0, body))
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def poly_to_json(p: Poly, var: str = "x") -> dict:
    return {"var": var, "coeffs": [_coeff_str(c) for c in p.coeffs]}


def parse_decimal(s: str) -> int:
    """int(s) for a decimal string of any length, the inverse of
    `decimal_str`, likewise independent of the int-to-str limit: a string
    of more than 600 characters is split into two halves of digits, each
    parsed on its own and joined by a power of ten."""
    if len(s) <= 600:
        return int(s)
    negative = s[0] == "-"
    digits = s[1:] if negative else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {s[:20]!r}... ({len(s)} characters)")
    k = len(digits) // 2
    value = parse_decimal(digits[:-k]) * 10**k + parse_decimal(digits[-k:])
    return -value if negative else value


def _parse_coeff(s: str) -> Coeff:
    """The inverse of `_coeff_str`: an int or a "p/q" Fraction."""
    if len(s) <= 600:
        return Fraction(s) if "/" in s else int(s)
    num, slash, den = s.partition("/")
    return Fraction(parse_decimal(num), parse_decimal(den)) if slash else parse_decimal(s)


def poly_from_json(obj: dict) -> Poly:
    """The inverse of `poly_to_json`, at any int-to-str limit."""
    return Poly(s if isinstance(s, int) else _parse_coeff(s) for s in obj["coeffs"])


def all_integer(p: Poly) -> bool:
    return all(isinstance(c, int) for c in p.coeffs)
