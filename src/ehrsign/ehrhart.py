"""Ehrhart polynomials: conversion from h*, building blocks, products,
dilations, and sign-vector extraction.

The sign vector of a d-polytope (d >= 3) is (sgn(c_{d-2}), ..., sgn(c_1)) in
descending-degree order, where i(P,t) = 1 + sum c_i t^i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union, get_args

from .delta import DeltaQ, HStar, hstar
from .eulerian import EulerianS, sdm_ehrhart
from .polynomials import Poly, falling_poly


@dataclass(frozen=True, init=False)
class EhrhartPoly:
    """A degree-dim polynomial with constant term 1 and positive leading and
    second-highest coefficients (volume and half boundary volume).

    Stored as an integer-coefficient numerator `num` over one positive
    denominator `den` with gcd(den, *num) == 1, so `den` is the lcm of the
    coefficient denominators and equality is structural.  `poly`, the public
    Fraction form, is built when it is read.
    """

    num: Poly
    den: int
    dim: int

    def __init__(self, poly: Poly, dim: int):
        den = math.lcm(*(c.denominator for c in poly.coeffs))
        self._store(
            Poly(c.numerator * (den // c.denominator) for c in poly.coeffs), den, dim
        )

    @classmethod
    def from_num(cls, num: Poly, den: int, dim: int) -> "EhrhartPoly":
        """num/den for an integer polynomial num and den > 0, in lowest terms."""
        g = math.gcd(den, *num.coeffs)
        if g > 1:
            num, den = Poly(c // g for c in num.coeffs), den // g
        out = cls.__new__(cls)
        out._store(num, den, dim)
        return out

    def _store(self, num: Poly, den: int, dim: int) -> None:
        cs = num.coeffs
        if cs[0] != den:
            raise ValueError("Ehrhart polynomial must have constant term 1")
        if len(cs) - 1 != dim:
            raise ValueError(f"degree {num.degree} != dimension {dim}")
        if cs[dim] <= 0:
            raise ValueError("leading coefficient (volume) must be positive")
        if dim >= 1 and cs[dim - 1] <= 0:
            raise ValueError("second coefficient (half boundary volume) must be positive")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "dim", dim)

    @property
    def poly(self) -> Poly:
        if self.den == 1:
            return self.num
        return Poly(Fraction(c, self.den) for c in self.num.coeffs)

    def eval(self, t):
        return self.poly.eval(t)


# --- building blocks ---------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """The segment [0, m]."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("Interval requires m >= 1")

    kind = "interval"
    dim = 1


@dataclass(frozen=True)
class ReeveT:
    """The Reeve tetrahedron conv{(0,0,0),(1,0,0),(0,1,0),(1,1,m)}."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ReeveT requires m >= 1")

    kind = "reeve"
    dim = 3


@dataclass(frozen=True)
class Quad:
    """The quadrilateral conv{(0,0),(1,0),(2,a),(1,a)}."""

    a: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("Quad requires a >= 1")

    kind = "quad"
    dim = 2


@dataclass(frozen=True)
class StdSimplex:
    """The standard d-simplex conv{0, e_1, ..., e_d}."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("StdSimplex requires d >= 1")

    kind = "std_simplex"

    @property
    def dim(self) -> int:
        return self.d


@dataclass(frozen=True)
class Delta:
    """An arbitrary Delta(0,q) block."""

    delta: DeltaQ

    kind = "delta"

    @property
    def dim(self) -> int:
        return self.delta.d


Block = Union[Interval, ReeveT, EulerianS, Quad, StdSimplex, Delta]


@dataclass(frozen=True)
class PolytopeExpr:
    """A Cartesian product of dilated blocks: prod_i r_i * block_i."""

    factors: tuple[tuple[int, Block], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("PolytopeExpr needs at least one factor")
        for r, _ in self.factors:
            if r < 1:
                raise ValueError("dilation factors must be >= 1")

    @property
    def dim(self) -> int:
        return sum(block.dim for _, block in self.factors)

    def dilated(self, r: int) -> "PolytopeExpr":
        """r*(A x B) = rA x rB."""
        if r < 1:
            raise ValueError("dilation factor must be >= 1")
        return PolytopeExpr(tuple((r * ri, b) for ri, b in self.factors))

    def __mul__(self, other: "PolytopeExpr") -> "PolytopeExpr":
        return PolytopeExpr(self.factors + other.factors)


# --- operations --------------------------------------------------------------


def from_hstar(h: HStar, d: int) -> EhrhartPoly:
    """i(P,t) = sum_i h_i * C(t + d - i, d), summed over the common d!."""
    if h.poly.degree > d:
        raise ValueError("h* degree exceeds the requested dimension")
    out = Poly.zero()
    for i, c in enumerate(h.poly.coeffs):
        if c:
            out = out + falling_poly(d - i, d).scale(c)
    return EhrhartPoly.from_num(out, math.factorial(d), d)


def block_ehrhart(b: Block) -> EhrhartPoly:
    if isinstance(b, Interval):
        return EhrhartPoly.from_num(Poly((1, b.m)), 1, 1)
    if isinstance(b, ReeveT):
        return EhrhartPoly.from_num(Poly((6, 12 - b.m, 6, b.m)), 6, 3)
    if isinstance(b, EulerianS):
        return EhrhartPoly.from_num(sdm_ehrhart(b.d, b.m), 1, b.d)
    if isinstance(b, Quad):
        return EhrhartPoly.from_num(Poly((1, 2, b.a)), 1, 2)
    if isinstance(b, StdSimplex):
        return EhrhartPoly.from_num(falling_poly(b.d, b.d), math.factorial(b.d), b.d)
    if isinstance(b, Delta):
        return from_hstar(hstar(b.delta), b.delta.d)
    raise TypeError(f"unknown block {b!r}")


def ehr_product(a: EhrhartPoly, b: EhrhartPoly) -> EhrhartPoly:
    """i(P x Q, t) = i(P,t) * i(Q,t)."""
    return EhrhartPoly.from_num(a.num * b.num, a.den * b.den, a.dim + b.dim)


def ehr_dilate(a: EhrhartPoly, r: int) -> EhrhartPoly:
    """i(rP, t) = i(P, rt)."""
    return EhrhartPoly.from_num(a.num.compose_scale(r), a.den, a.dim)


def expr_ehrhart(e: PolytopeExpr) -> EhrhartPoly:
    out = None
    for r, block in e.factors:
        f = ehr_dilate(block_ehrhart(block), r)
        out = f if out is None else ehr_product(out, f)
    return out


def _sgn(c) -> int:
    if c > 0:
        return 1
    if c < 0:
        return -1
    return 0


def sign_vector(a: EhrhartPoly) -> tuple[int, ...]:
    """(sgn(c_{d-2}), ..., sgn(c_1)); defined only for dim >= 3."""
    if a.dim < 3:
        raise ValueError("sign vector needs dim >= 3 (no middle coefficients)")
    # den > 0, so the numerators carry the signs; num has degree dim
    return tuple(map(_sgn, a.num.coeffs[a.dim - 2 : 0 : -1]))


# --- JSON wire format --------------------------------------------------------


_BLOCK_KINDS = {cls.kind: cls for cls in get_args(Block)}


def block_to_json(b: Block) -> dict:
    if _BLOCK_KINDS.get(getattr(b, "kind", None)) is not type(b):
        raise TypeError(f"unknown block {b!r}")
    if isinstance(b, Delta):
        return {"kind": b.kind, "q": list(b.delta.q_head), "n": b.delta.n}
    return {"kind": b.kind, **{f.name: getattr(b, f.name) for f in fields(b)}}


def _json_int(x) -> int:
    """x itself if it is a JSON integer; floats, strings and booleans are
    rejected, never truncated or parsed."""
    if type(x) is not int:
        raise ValueError(f"expected a JSON integer, got {x!r}")
    return x


def block_from_json(obj: dict) -> Block:
    kind = obj["kind"]
    cls = _BLOCK_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown block kind {kind!r}")
    if cls is Delta:
        return Delta(DeltaQ(tuple(_json_int(q) for q in obj["q"]), _json_int(obj["n"])))
    return cls(*(_json_int(obj[f.name]) for f in fields(cls)))


def expr_to_json(e: PolytopeExpr) -> dict:
    return {
        "factors": [
            {"r": r, "block": block_to_json(block)} for r, block in e.factors
        ]
    }


def expr_from_json(obj: dict) -> PolytopeExpr:
    return PolytopeExpr(
        tuple(
            (_json_int(f["r"]), block_from_json(f["block"])) for f in obj["factors"]
        )
    )
