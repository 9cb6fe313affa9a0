"""Eulerian polynomials, Lehmer codes, and the Eulerian simplex family S_d(m).

A_d(x) is computed two independent ways: the classical recurrence, and a
summation over factorial-base ranks whose exponent is the descent count of
the decoded permutation.  S_d(m) is the simplex whose h* decomposes as
m*A_d(x) + A_d(x)(1-x)/x; its Ehrhart polynomial is m*t^d + sum C(d,i) t^i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .delta import DeltaQ, HStar, _numpy_pays
from .polynomials import Poly

DESCENT_SUM_DEFAULT_LIMIT = 10  # d! summands; 10! = 3.6M is desk-scale

# d! from which the descent sum runs in numpy: with numpy loaded, and cold,
# where the call also pays the ~0.15 s numpy import (the loop takes about
# 45 ms at d = 8 and 0.5 s at d = 9).  Measured on a 2-vCPU Xeon VM,
# Python 3.11, numpy 2.4.
_DESCENT_CUT_WARM = 10_000
_DESCENT_CUT_COLD = 100_000


def validate_permutation(entries) -> tuple[int, ...]:
    p = tuple(entries)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def validate_lehmer(code) -> tuple[int, ...]:
    c = tuple(code)
    d = len(c)
    for i, ci in enumerate(c):
        if not 0 <= ci <= d - 1 - i:
            raise ValueError(f"Lehmer digit out of range at index {i}: {c}")
    return c


def eulerian_recurrence(d: int) -> Poly:
    """A_d(x) via A(d,i) = i*A(d-1,i) + (d-i+1)*A(d-1,i-1); A_d(1) = d!."""
    if d < 1:
        raise ValueError("d must be >= 1")
    row = [0, 1]  # A_1: coefficient of x^1
    for dd in range(2, d + 1):
        new = [0] * (dd + 1)
        for i in range(1, dd + 1):
            prev_i = row[i] if i < len(row) else 0
            prev_im1 = row[i - 1] if i - 1 < len(row) else 0
            new[i] = i * prev_i + (dd - i + 1) * prev_im1
        row = new
    return Poly(row)


def lehmer_decode(code) -> tuple[int, ...]:
    """Inverse of the inversion table: pick the (c_i+1)-th smallest
    remaining element at each step."""
    c = validate_lehmer(code)
    remaining = list(range(1, len(c) + 1))
    return tuple(remaining.pop(ci) for ci in c)


def lehmer_encode(perm) -> tuple[int, ...]:
    """Inversion table c_i = #{j > i : p_i > p_j}."""
    p = validate_permutation(perm)
    return tuple(
        sum(1 for pj in p[i + 1 :] if p[i] > pj) for i in range(len(p))
    )


def aleph(code) -> int:
    """Factorial-base rank: N = sum c_i * (d-i)!  in [0, d!-1]."""
    c = validate_lehmer(code)
    d = len(c)
    return sum(ci * math.factorial(d - 1 - i) for i, ci in enumerate(c))


def aleph_inv(n: int, d: int) -> tuple[int, ...]:
    """Factorial-base digits of N by repeated division by (d-1)!, ..., 1!."""
    if not 0 <= n < math.factorial(d):
        raise ValueError(f"N={n} outside [0, {d}!-1]")
    code = []
    rem = n
    for i in range(d - 1, -1, -1):
        f = math.factorial(i)
        code.append(rem // f)
        rem %= f
    return tuple(code)


def descents(perm) -> int:
    p = validate_permutation(perm)
    return sum(1 for j in range(len(p) - 1) if p[j] > p[j + 1])


def descent_formula(n: int, d: int) -> int:
    """des of the rank-N permutation without decoding it:
    N - sum_{i=0}^{d-2} floor(N / (i!*(i+2)))."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0 <= n < math.factorial(d):
        raise ValueError(f"N={n} outside [0, {d}!-1]")
    return n - sum(n // (math.factorial(i) * (i + 2)) for i in range(d - 1))


def eulerian_descent(d: int) -> Poly:
    """A_d(x) as sum over ranks j of x^{1 + des}; a verification path, not
    the production one (d! summands)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if d > DESCENT_SUM_DEFAULT_LIMIT:
        raise ValueError(
            f"d={d} exceeds the descent-sum limit {DESCENT_SUM_DEFAULT_LIMIT}"
        )
    fact = math.factorial(d)
    divisors = [math.factorial(i) * (i + 2) for i in range(d - 1)]
    if _numpy_pays(fact, _DESCENT_CUT_WARM, _DESCENT_CUT_COLD):
        import numpy as np  # imported here so that importing ehrsign skips it

        j = np.arange(fact, dtype=np.int64)
        e = j + 1
        for div in divisors:
            e = e - j // div
        counts = np.bincount(e, minlength=d + 1)
        return Poly(int(c) for c in counts)
    counts = [0] * (d + 1)
    for j in range(fact):
        counts[j + 1 - sum(j // div for div in divisors)] += 1
    return Poly(counts)


def sdm_q_head(d: int) -> tuple[int, ...]:
    """q_i(d) = -d!/(i! + (i-1)!) for 1 <= i <= d-1; always an exact integer."""
    fact = math.factorial(d)
    head = []
    for i in range(1, d):
        denom = math.factorial(i) + math.factorial(i - 1)
        if fact % denom != 0:
            raise AssertionError(f"(i! + (i-1)!) does not divide d! for d={d}, i={i}")
        head.append(-(fact // denom))
    return tuple(head)


@dataclass(frozen=True)
class EulerianS:
    """The Eulerian simplex S_d(m): the interval [0,m] for d=1, otherwise the
    Delta(0,q) with q_head = (q_1(d),...,q_{d-1}(d)) and n = d!*m."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("EulerianS requires d >= 1, m >= 1")

    kind = "eulerian_s"

    @property
    def dim(self) -> int:
        return self.d

    @property
    def delta(self) -> DeltaQ:
        if self.d < 2:
            raise ValueError("d=1 is the interval [0,m], not a DeltaQ")
        dq = DeltaQ(sdm_q_head(self.d), math.factorial(self.d) * self.m)
        if dq.q_d != math.factorial(self.d):
            raise AssertionError("derived q_d != d! for S_d(m)")
        return dq

    def vertices(self) -> list[tuple[int, ...]]:
        if self.d == 1:
            return [(0,), (self.m,)]
        return self.delta.vertices()


def sdm_hstar(d: int, m: int) -> HStar:
    """Closed form: x * h*(S_d(m)) = A_d(x) * ((m-1)x + 1)."""
    EulerianS(d, m)  # the (d, m) domain check
    if d == 1:
        return HStar(Poly((1, m - 1)), 1)
    numer = eulerian_recurrence(d) * Poly((1, m - 1))
    if numer[0] != 0:
        raise AssertionError("x should divide A_d(x)*((m-1)x+1)")
    return HStar(Poly(numer.coeffs[1:]), d)


def sdm_ehrhart(d: int, m: int) -> Poly:
    """i(S_d(m), t) = m*t^d + sum_{i=0}^{d-1} C(d,i) t^i."""
    EulerianS(d, m)  # the (d, m) domain check
    coeffs = [math.comb(d, i) for i in range(d)] + [m]
    return Poly(coeffs)
