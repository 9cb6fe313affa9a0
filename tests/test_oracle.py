"""The lattice oracle is the ground truth the closed forms are judged
against, so its own tests lean on hand-countable instances and internal
consistency (interpolation honesty, monotonicity, the h1/h_d identities)."""

import math
import random
from fractions import Fraction

import pytest

from ehrsign.delta import DeltaQ, hstar_naive
from ehrsign.ehrhart import from_hstar
from ehrsign.oracle import (
    DilationCount,
    OracleGuardError,
    count_points,
    count_quad_points,
    count_simplex_points,
    hstar_via_counts,
    interpolate_ehrhart,
    interpolate_through,
)
from ehrsign.polynomials import Poly


def test_dilation_count_invariants():
    DilationCount(1, 4, 0)
    with pytest.raises(ValueError):
        DilationCount(1, 2, 3)


def test_count_reeve():
    s = DeltaQ((1, 1), 13)
    assert count_points(s, 0) == DilationCount(0, 1, 0)
    assert count_points(s, 1).count == 4
    assert count_points(s, 1).interior_count == 0
    assert count_points(s, 2).count == 22


def test_count_unit_simplex():
    s = DeltaQ((0, 0), 1)
    for t in range(0, 5):
        assert count_points(s, t).count == math.comb(t + 3, 3)


def test_count_square_like():
    # q=(-1), n=2 is a triangle with vertices (0,0),(1,0),(-1,2): area 1,
    # i(t) = t^2 + 2t + 1
    s = DeltaQ((-1,), 2)
    for t in range(0, 5):
        assert count_points(s, t).count == (t + 1) ** 2


def test_guards():
    s = DeltaQ((1, 1), 13)
    with pytest.raises(OracleGuardError):
        count_points(s, 10_000)
    with pytest.raises(OracleGuardError):
        count_points(DeltaQ((1,) * 5, 2), 1)  # d = 6 > max_dim
    with pytest.raises(ValueError):
        count_points(s, -1)


def test_guard_env_override(monkeypatch):
    s = DeltaQ((1, 1), 13)
    monkeypatch.setenv("EHRHART_MAX_ORACLE_POINTS", "5")
    with pytest.raises(OracleGuardError):
        count_points(s, 1)
    monkeypatch.setenv("EHRHART_MAX_ORACLE_POINTS", "100000")
    assert count_points(s, 1).count == 4


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_guard_env_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("EHRHART_MAX_ORACLE_POINTS", value)
    match = "EHRHART_MAX_ORACLE_POINTS=.* non-negative integer"
    with pytest.raises(OracleGuardError, match=match):
        count_points(DeltaQ((1, 1), 13), 1)


def test_interpolate_reeve():
    # m=2 Reeve tetrahedron: (2/6)t^3 + t^2 + (10/6)t + 1
    p = interpolate_ehrhart(DeltaQ((1, 1), 2))
    assert p == Poly((1, Fraction(5, 3), 1, Fraction(1, 3)))


def test_interpolate_degenerate_zero_coefficient():
    # m=12 Reeve tetrahedron has t-coefficient (12-12)/6 = 0
    p = interpolate_ehrhart(DeltaQ((1, 1), 12))
    assert p == Poly((1, 0, 1, 2))


def test_interpolation_honesty_out_of_sample():
    rng = random.Random(5)
    for _ in range(15):
        d = rng.randint(2, 4)
        head = tuple(rng.randint(-4, 4) for _ in range(d - 1))
        s = DeltaQ(head, rng.randint(1, 8))
        p = interpolate_ehrhart(s)
        for t in (d + 1, d + 2):
            assert p.eval(t) == count_points(s, t).count, s


def test_counts_monotone():
    s = DeltaQ((2, -1), 5)
    prev = 0
    for t in range(6):
        c = count_points(s, t).count
        assert c >= prev
        prev = c


def test_hstar_via_counts_matches_naive():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(2, 4)
        head = tuple(rng.randint(-5, 5) for _ in range(d - 1))
        s = DeltaQ(head, rng.randint(1, 12))
        assert hstar_via_counts(s) == hstar_naive(s), s


def test_hstar_via_counts_matches_bigint_naive():
    # |q_i|(n-1) >= 2^62 sends hstar_naive down its big-int path; n*d stays
    # within the oracle's default guard
    rng = random.Random(13)
    for _ in range(12):
        d = rng.randint(2, 4)
        head = tuple(
            rng.choice((1, -1)) * rng.randint(10**17, 10**18) for _ in range(d - 1)
        )
        s = DeltaQ(head, rng.randint(64, 10_000 // d))
        assert max(abs(q) for q in s.q_full) * (s.n - 1) >= 2**62, s
        assert hstar_naive(s) == hstar_via_counts(s), s


def test_hstar_via_counts_examples():
    assert hstar_via_counts(DeltaQ((1, 1), 13)).poly == Poly((1, 0, 12))
    assert hstar_via_counts(DeltaQ((-3, -2), 6)).poly == Poly((1, 4, 1))
    assert hstar_via_counts(DeltaQ((0, 0), 1)).poly == Poly.one()


def test_interpolate_matches_hstar_conversion():
    rng = random.Random(3)
    for _ in range(15):
        d = rng.randint(2, 4)
        head = tuple(rng.randint(-4, 4) for _ in range(d - 1))
        s = DeltaQ(head, rng.randint(1, 10))
        direct = interpolate_ehrhart(s)
        via_h = from_hstar(hstar_naive(s), d).poly
        assert direct == via_h, s


def test_count_quad_points():
    # t * conv{(0,0),(1,0),(2,a),(1,a)} should count to a*t^2 + 2t + 1
    for a in (1, 2, 3, 5):
        for t in range(0, 6):
            assert count_quad_points(a, t) == a * t * t + 2 * t + 1, (a, t)
    with pytest.raises(ValueError):
        count_quad_points(0, 1)


def test_count_simplex_points():
    for d in (1, 2, 3, 4):
        for t in range(0, 6):
            assert count_simplex_points(d, t) == math.comb(t + d, d)


def test_interpolate_through():
    pts = [(0, 1), (1, 3), (2, 7)]  # 1 + t + t^2
    assert interpolate_through(pts) == Poly((1, 1, 1))
