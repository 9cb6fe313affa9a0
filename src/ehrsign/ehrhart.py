"""Ehrhart polynomials: conversion from h*, building blocks, products,
dilations, and sign-vector extraction.

The sign vector of a d-polytope (d >= 3) is (sgn(c_{d-2}), ..., sgn(c_1)) in
descending-degree order, where i(P,t) = 1 + sum c_i t^i.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union, get_args

from .delta import DeltaQ, HStar, hstar
from .eulerian import sdm_ehrhart
from .polynomials import Poly, binom_poly


@dataclass(frozen=True)
class EhrhartPoly:
    """A degree-dim polynomial with constant term 1 and positive leading and
    second-highest coefficients (volume and half boundary volume)."""

    poly: Poly
    dim: int

    def __post_init__(self):
        p = self.poly
        if p[0] != 1:
            raise ValueError("Ehrhart polynomial must have constant term 1")
        if p.degree != self.dim:
            raise ValueError(f"degree {p.degree} != dimension {self.dim}")
        if p[self.dim] <= 0:
            raise ValueError("leading coefficient (volume) must be positive")
        if self.dim >= 1 and p[self.dim - 1] <= 0:
            raise ValueError("second coefficient (half boundary volume) must be positive")

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
class EulerianS:
    """The Eulerian simplex S_d(m)."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("EulerianS requires d >= 1, m >= 1")

    kind = "eulerian_s"

    @property
    def dim(self) -> int:
        return self.d


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
    """i(P,t) = sum_i h_i * C(t + d - i, d)."""
    if h.poly.degree > d:
        raise ValueError("h* degree exceeds the requested dimension")
    out = Poly.zero()
    for i, c in enumerate(h.poly.coeffs):
        if c:
            out = out + binom_poly(d - i, d).scale(c)
    return EhrhartPoly(out, d)


def block_ehrhart(b: Block) -> EhrhartPoly:
    if isinstance(b, Interval):
        return EhrhartPoly(Poly((1, b.m)), 1)
    if isinstance(b, ReeveT):
        return EhrhartPoly(
            Poly((1, Fraction(12 - b.m, 6), 1, Fraction(b.m, 6))), 3
        )
    if isinstance(b, EulerianS):
        return EhrhartPoly(sdm_ehrhart(b.d, b.m), b.d)
    if isinstance(b, Quad):
        return EhrhartPoly(Poly((1, 2, b.a)), 2)
    if isinstance(b, StdSimplex):
        return EhrhartPoly(binom_poly(b.d, b.d), b.d)
    if isinstance(b, Delta):
        return from_hstar(hstar(b.delta), b.delta.d)
    raise TypeError(f"unknown block {b!r}")


def ehr_product(a: EhrhartPoly, b: EhrhartPoly) -> EhrhartPoly:
    """i(P x Q, t) = i(P,t) * i(Q,t)."""
    return EhrhartPoly(a.poly * b.poly, a.dim + b.dim)


def ehr_dilate(a: EhrhartPoly, r: int) -> EhrhartPoly:
    """i(rP, t) = i(P, rt)."""
    return EhrhartPoly(a.poly.compose_scale(r), a.dim)


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
    return tuple(_sgn(a.poly[i]) for i in range(a.dim - 2, 0, -1))


# --- JSON wire format --------------------------------------------------------


_BLOCK_KINDS = {cls.kind: cls for cls in get_args(Block)}


def block_to_json(b: Block) -> dict:
    if _BLOCK_KINDS.get(getattr(b, "kind", None)) is not type(b):
        raise TypeError(f"unknown block {b!r}")
    if isinstance(b, Delta):
        return {"kind": b.kind, "q": list(b.delta.q_head), "n": b.delta.n}
    return {"kind": b.kind, **{f.name: getattr(b, f.name) for f in fields(b)}}


def block_from_json(obj: dict) -> Block:
    kind = obj["kind"]
    cls = _BLOCK_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown block kind {kind!r}")
    if cls is Delta:
        return Delta(DeltaQ(tuple(int(q) for q in obj["q"]), int(obj["n"])))
    return cls(*(int(obj[f.name]) for f in fields(cls)))


def expr_to_json(e: PolytopeExpr) -> dict:
    return {
        "factors": [
            {"r": r, "block": block_to_json(block)} for r, block in e.factors
        ]
    }


def expr_from_json(obj: dict) -> PolytopeExpr:
    return PolytopeExpr(
        tuple(
            (int(f["r"]), block_from_json(f["block"])) for f in obj["factors"]
        )
    )
