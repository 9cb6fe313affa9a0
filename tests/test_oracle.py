"""The lattice oracle is the ground truth the closed forms are judged
against, so its own tests lean on hand-countable instances, internal
consistency (monotonicity, the h1/h_d identities), a point-by-point
enumeration that the per-slice counts must match, and pointwise agreement
with the closed forms at t = 0..d and past it."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrsign import oracle
from ehrsign.delta import DeltaQ, HStar, hstar, hstar_naive
from ehrsign.ehrhart import Quad, ReeveT, block_ehrhart, ehr_dilate, from_hstar
from ehrsign.eulerian import EulerianS, sdm_ehrhart
from ehrsign.oracle import (
    MAX_SLICES,
    DilationCount,
    OracleGuardError,
    count_points,
    count_quad_points,
)
from ehrsign.polynomials import Poly


def walk_count(s: DeltaQ, t: int) -> tuple[int, int]:
    """Reference (count, interior_count) of t*Delta(0,q): visits every lattice
    point, one recursive call per point, on the n-scaled inequalities."""
    n = s.n
    qs = s.q_head
    total = 0
    interior = 0

    def walk(i: int, budget: int, strict_ok: bool):
        # budget = n*(t - lam_d - lam_1 - ... - lam_{i-1}), an integer >= 0
        nonlocal total, interior
        if i == len(qs):
            total += 1
            if strict_ok and budget > 0:
                interior += 1
            return
        base = qs[i] * x_d  # n * (q_i * lam_d)
        lo = -((-base) // n)  # ceil(base / n)
        hi = (base + budget) // n
        for x_i in range(lo, hi + 1):
            lam_scaled = n * x_i - base
            walk(i + 1, budget - lam_scaled, strict_ok and lam_scaled > 0)

    for x_d in range(0, t * n + 1):
        walk(0, t * n - x_d, x_d > 0)
    return total, interior


def counts(s: DeltaQ, t: int) -> tuple[int, int]:
    c = count_points(s, t)
    return c.count, c.interior_count


def check_counts_against_hstar(s: DeltaQ, h: HStar, ts) -> None:
    """count_points(s, t) == from_hstar(h).eval(t) at each t, and the lattice
    identities h_1 = count(1) - (d+1), h_d = interior(1).  A degree-d
    polynomial is fixed by its values at t = 0..d, and from_hstar is
    injective, so agreement there holds exactly when interpolating the counts
    gives from_hstar(h), and exactly when the h* the counts determine is h."""
    ehr = from_hstar(h, s.d)
    for t in ts:
        assert count_points(s, t).count == ehr.eval(t), (s, t)
    one = count_points(s, 1)
    assert h.poly[1] == one.count - (s.d + 1), s
    assert h.poly[s.d] == one.interior_count, s


def small_heads(d: int, n: int):
    """Every q_head over values that hit the slice edge cases: q_i = 0 (all
    residues 0), q_i = +-n (residues 0, facets through lattice points), +-1
    and n + 1; negative heads push the derived q_d past n."""
    values = sorted({0, 1, -1, n, -n, n + 1, -2 * n})
    return itertools.product(values, repeat=d - 1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_slice_counts_match_walk_exhaustively(d):
    for n in (1, 2, 3, 5):
        for head in small_heads(d, n):
            s = DeltaQ(head, n)
            for t in range(4):
                assert counts(s, t) == walk_count(s, t), (s, t)


@pytest.mark.parametrize("head, n", [((1, 1), 1), ((-1,), 2), ((2, -1), 3),
                                     ((-3, -2), 6), ((1, -1, 1), 1), ((0, 2, -2), 2)])
def test_slice_counts_match_walk_up_to_the_guard(monkeypatch, head, n):
    guard = 12 if len(head) < 3 else 8
    monkeypatch.setattr(oracle, "MAX_SLICES", guard)
    s = DeltaQ(head, n)
    last = guard // n
    for t in range(last + 1):
        assert counts(s, t) == walk_count(s, t), (s, t)
    with pytest.raises(OracleGuardError):
        count_points(s, last + 1)


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-3 * n, 3 * n), min_size=1, max_size=3),
            st.just(n),
            st.integers(min_value=0, max_value=4),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_slice_counts_match_walk_on_random_q(case):
    head, n, t = case
    s = DeltaQ(tuple(head), n)
    assert counts(s, t) == walk_count(s, t)


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


def test_count_simplex_points():
    # the standard d-simplex is Delta(0, (0,...,0)) with n = 1
    for d in (2, 3, 4, 5):
        s = DeltaQ((0,) * (d - 1), 1)
        for t in range(0, 6):
            assert count_points(s, t).count == math.comb(t + d, d), (d, t)


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
    with pytest.raises(ValueError):
        count_points(s, -1)
    # only n*t is guarded: a d = 6 instance counts in n*t + 1 slices
    s6 = DeltaQ((1,) * 5, 2)
    assert count_points(s6, 1).count == from_hstar(hstar(s6), 6).eval(1)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_count_eulerian_simplex_matches_closed_form(d):
    # S_d(1) is Delta(0,q) with n = d!, so the guard admits t <= MAX_SLICES // d!
    s = EulerianS(d, 1).delta
    for t in range(min(d + 2, MAX_SLICES // s.n) + 1):
        assert count_points(s, t).count == sdm_ehrhart(d, 1).eval(t), (d, t)


@pytest.mark.parametrize(
    "d, m", [(d, m) for d in (5, 6, 7) for m in (2, 3)] + [(8, 1), (8, 2)]
)
def test_count_eulerian_block_matches_closed_form(d, m):
    # EulerianS(d, m) is Delta(0, sdm_q_head(d)) with n = d!*m; the paper's
    # i(S_d(m), t) = m*t^d + sum_{i<d} C(d, i)*t^i, counted to n*t <= MAX_SLICES
    # (S_8(1) to t = 2, S_8(2) to t = 1)
    s = EulerianS(d, m).delta
    assert s.n == math.factorial(d) * m
    closed = block_ehrhart(EulerianS(d, m))
    for t in range(min(3, MAX_SLICES // s.n) + 1):
        expected = m * t**d + sum(math.comb(d, i) * t**i for i in range(d))
        assert count_points(s, t).count == sdm_ehrhart(d, m).eval(t) == expected, (d, m, t)
        assert closed.eval(t) == expected


@pytest.mark.parametrize("m", [1, 2, 6, 12, 13, 40])
def test_count_reeve_block_matches_closed_form(m):
    # ReeveT(m) is Delta(0,(1,1)) with n = m; i(t) = m/6 t^3 + t^2 + (12-m)/6 t + 1,
    # whose t coefficient is 0 at m = 12
    s = DeltaQ((1, 1), m)
    for t in range(6):
        closed = Fraction(m * t**3 + (12 - m) * t, 6) + t * t + 1
        assert count_points(s, t).count == block_ehrhart(ReeveT(m)).eval(t) == closed, (m, t)


def test_interpolate_reeve():
    # m=2 Reeve tetrahedron: (2/6)t^3 + t^2 + (10/6)t + 1; the counts at
    # t = 0..3 fix the cubic, so matching it there is matching the polynomial
    s = DeltaQ((1, 1), 2)
    p = Poly((1, Fraction(5, 3), 1, Fraction(1, 3)))
    assert from_hstar(hstar(s), s.d).poly == p
    for t in range(s.d + 1):
        assert count_points(s, t).count == p.eval(t), t


def test_interpolate_degenerate_zero_coefficient():
    # m=12 Reeve tetrahedron has t-coefficient (12-12)/6 = 0
    s = DeltaQ((1, 1), 12)
    p = Poly((1, 0, 1, 2))
    assert from_hstar(hstar(s), s.d).poly == p
    for t in range(s.d + 1):
        assert count_points(s, t).count == p.eval(t), t


def test_count_dilate_matches_ehr_dilate():
    # i(r*P, t) = i(P, r*t): count r*t*Delta(0,q) against the dilated closed form
    rng = random.Random(17)
    for _ in range(12):
        d = rng.randint(2, 4)
        s = DeltaQ(tuple(rng.randint(-6, 6) for _ in range(d - 1)), rng.randint(1, 9))
        ehr = from_hstar(hstar(s), s.d)
        for r in (2, 3):
            dilated = ehr_dilate(ehr, r)
            for t in range(4):
                assert count_points(s, r * t).count == dilated.eval(t), (s, r, t)


def test_counts_monotone():
    s = DeltaQ((2, -1), 5)
    prev = 0
    for t in range(6):
        c = count_points(s, t).count
        assert c >= prev
        prev = c


@pytest.mark.parametrize(
    "seed, count, q_max, n_max", [(3, 15, 4, 10), (5, 15, 4, 8), (11, 25, 5, 12)]
)
def test_counts_match_naive_hstar_pointwise(seed, count, q_max, n_max):
    # t = d+1, d+2 lie past the d+1 values that fix the polynomial
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(2, 4)
        head = tuple(rng.randint(-q_max, q_max) for _ in range(d - 1))
        s = DeltaQ(head, rng.randint(1, n_max))
        check_counts_against_hstar(s, hstar_naive(s), range(d + 3))


def test_counts_match_bigint_naive_hstar():
    # |q_i|(n-1) >= 2^62 sends hstar_naive down its big-int path; n*d stays
    # within the oracle's guard
    rng = random.Random(13)
    for _ in range(12):
        d = rng.randint(2, 4)
        head = tuple(
            rng.choice((1, -1)) * rng.randint(10**17, 10**18) for _ in range(d - 1)
        )
        s = DeltaQ(head, rng.randint(64, 10_000 // d))
        assert max(abs(q) for q in s.q_full) * (s.n - 1) >= 2**62, s
        check_counts_against_hstar(s, hstar_naive(s), range(d + 1))


def test_counts_match_known_hstar():
    for head, n, h in (((1, 1), 13, (1, 0, 12)), ((-3, -2), 6, (1, 4, 1)), ((0, 0), 1, (1,))):
        s = DeltaQ(head, n)
        check_counts_against_hstar(s, HStar(Poly(h), s.d), range(s.d + 1))


def test_count_quad_points():
    # t * conv{(0,0),(1,0),(2,a),(1,a)} against the Quad block's closed form
    for a in (1, 2, 3, 5):
        closed = block_ehrhart(Quad(a))
        for t in range(0, 6):
            assert count_quad_points(a, t) == closed.eval(t), (a, t)
    with pytest.raises(ValueError):
        count_quad_points(0, 1)
