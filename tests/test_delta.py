"""Tests for the Delta(0,q) h* machinery.

The fixed expected values here were either computed with the independent
brute-force lattice oracle (see test_oracle.py) or are standard closed
forms; the fast path is always cross-checked against the naive summation.
"""

import random

import pytest

from ehrsign.delta import (
    DeltaQ,
    DivisibilityError,
    FastPreconditionError,
    HStar,
    all_minus_ones,
    breakpoints_for,
    difference_poly,
    extended_reeve,
    fast_precondition_ok,
    hstar,
    hstar_family,
    hstar_fast,
    hstar_naive,
    l1_l2,
    pow2,
    r_even,
    r_odd,
    special_family,
)
from ehrsign.polynomials import Poly, poly_to_text

GOLDEN = DeltaQ((1, 5, 6, 8, -3, -7), 20)


def test_deltaq_basics():
    assert GOLDEN.d == 7
    assert GOLDEN.q_d == 1 - 10
    assert GOLDEN.q_full == (1, 5, 6, 8, -3, -7, -9)
    with pytest.raises(ValueError):
        DeltaQ((1,), 0)
    with pytest.raises(ValueError):
        DeltaQ((), 5)


def test_vertices():
    s = DeltaQ((1, 1), 13)
    assert s.vertices() == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 13)]


def test_hstar_golden_example():
    expected = Poly((1, 0, 0, 7, 9, 3))
    assert hstar_naive(GOLDEN).poly == expected
    assert hstar_fast(GOLDEN).poly == expected
    assert poly_to_text(expected) == "1 + 7*x^3 + 9*x^4 + 3*x^5"


def test_difference_poly_golden():
    # sparse intermediate of the fast path for the same instance
    assert poly_to_text(difference_poly(GOLDEN)) == (
        "4*x - x^3 + x^4 - x^7 + x^8 - x^9 + 2*x^11 - 2*x^12 + 2*x^13"
        " - x^14 - x^15 + 2*x^17 - x^18"
    )


def test_hstar_reeve():
    assert hstar(DeltaQ((1, 1), 13)).poly == Poly((1, 0, 12))


def test_hstar_trivial_simplex():
    assert hstar(DeltaQ((0, 0), 1)).poly == Poly.one()


def test_hstar_validation():
    with pytest.raises(ValueError):
        HStar(Poly((2, 1)), 1)  # constant term must be 1
    with pytest.raises(ValueError):
        HStar(Poly((1, -1)), 1)  # nonnegative
    with pytest.raises(ValueError):
        HStar(Poly((1, 1, 1)), 1)  # degree > dim


def test_normalized_volume():
    assert hstar(GOLDEN).normalized_volume() == 20


def test_breakpoints_positive():
    # q=3, n=10: ceil(3j/10) jumps at j=1, 4, 7
    assert breakpoints_for(3, 10) == [(1, 1), (4, 1), (7, 1)]


def test_breakpoints_negative():
    # q=-3, n=10: ceil(-3j/10) drops at j=4, 7 (only |q|-1 jumps in [1,n-1])
    assert breakpoints_for(-3, 10) == [(4, -1), (7, -1)]


def test_breakpoints_edge_cases():
    assert breakpoints_for(0, 10) == []
    # q = n: the j=0 jump is outside [1, n-1], leaving n-1 jumps
    assert len(breakpoints_for(5, 5)) == 4
    with pytest.raises(FastPreconditionError):
        breakpoints_for(11, 10)


def test_breakpoint_semantics():
    # the breakpoint list must reproduce the ceil staircase exactly
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 60)
        q = rng.randint(-n, n)
        steps = {}
        for pos, sign in breakpoints_for(q, n):
            assert 1 <= pos <= n - 1
            steps[pos] = steps.get(pos, 0) + sign
        height = 0
        for j in range(n):
            height += steps.get(j, 0)
            assert height == -((-q * j) // n), (q, n, j)


def test_fast_precondition():
    assert fast_precondition_ok(DeltaQ((1, 1), 13))
    # derived q_d = -9 exceeds n here
    assert not fast_precondition_ok(DeltaQ((4, 6), 5))
    with pytest.raises(FastPreconditionError):
        hstar_fast(DeltaQ((4, 6), 5))


def test_hstar_dispatch():
    s = DeltaQ((4, 6), 5)
    assert hstar(s, method="auto") == hstar_naive(s)
    with pytest.raises(ValueError):
        hstar(s, method="bogus")


def test_fast_equals_naive_random():
    rng = random.Random(42)
    for _ in range(300):
        d = rng.randint(2, 9)
        head = tuple(rng.randint(-30, 30) for _ in range(d - 1))
        s0 = DeltaQ(head, 1)
        bound = max(abs(q) for q in s0.q_full)
        s = DeltaQ(head, rng.randint(bound, bound + 400))
        assert hstar_fast(s) == hstar_naive(s), s


def test_numpy_and_python_paths_agree():
    # n >= 512 triggers the vectorized summation; tiny coefficient variant
    # of the same q must give identical h* shape on the pure Python path
    s_big = DeltaQ((3, -2, 5), 1024)
    forced = DeltaQ((3, -2, 5), 511)
    assert hstar_naive(s_big).poly[0] == 1
    assert hstar_naive(forced).poly[0] == 1
    # differential check on a single instance crossing the threshold
    for n in (511, 512, 513):
        s = DeltaQ((3, -2, 5), n)
        assert hstar_fast(s) == hstar_naive(s)


def test_huge_n_fast_path():
    n = 10**12
    s = DeltaQ((17, -23, 5), n)
    h = hstar_fast(s)
    assert h.normalized_volume() == n
    assert h.poly[0] == 1


# --- characteristic polynomials ---------------------------------------------


def test_l1_l2_base_case():
    # q = (-1,...,-1,d) with n = d: L1 = 1 + x + ... + x^{d-1}, L2 = 1 - x^d
    for d in (2, 3, 5):
        s = DeltaQ((-1,) * (d - 1), d)
        l1, l2 = l1_l2(s)
        assert l1 == Poly((1,) * d)
        assert l2 == Poly((1,) + (0,) * (d - 1) + (-1,))


def test_l1_l2_pow2_family():
    # q = (-1,-2,-4,8), n = 8: L1 = (1+x)^3, L2 = (1-x)(1+x)^3
    s = DeltaQ((-1, -2, -4), 8)
    l1, l2 = l1_l2(s)
    assert l1 == Poly((1, 1)) ** 3
    assert l2 == Poly((1, -1)) * Poly((1, 1)) ** 3


def test_l1_nonunimodal_instance():
    # d=7 instance whose L1 dips in the middle
    s = DeltaQ((1, 2, 3, 3, 4, -5), 420)
    assert s.q_d == -7
    l1, _ = l1_l2(s)
    assert l1 == Poly((0, 0, 159, 102, 159))


def test_l1_l2_methods_agree():
    for s in (DeltaQ((-3, -2), 6), DeltaQ((1, 2, 3, 3, 4, -5), 420)):
        assert l1_l2(s, method="naive") == l1_l2(s, method="auto")


def test_divisibility_error():
    with pytest.raises(DivisibilityError):
        l1_l2(DeltaQ((3,), 10))  # q_1 = 3 does not divide 10
    with pytest.raises(DivisibilityError):
        l1_l2(DeltaQ((0, 2), 4))  # zero coordinate


def test_hstar_family_matches_scaled_instance():
    s = DeltaQ((-3, -2), 6)
    for m in (1, 2, 3, 7):
        scaled = DeltaQ(s.q_head, s.n * m)
        assert hstar_family(s, m) == hstar_naive(scaled)
    with pytest.raises(ValueError):
        hstar_family(s, 0)


def _random_divisible_instance(rng):
    n = rng.choice((12, 24, 36, 60, 120, 360))
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    while True:
        d = rng.randint(2, 7)
        head = tuple(rng.choice(divisors) * rng.choice((1, -1)) for _ in range(d - 1))
        s = DeltaQ(head, n)
        if s.q_d != 0 and n % s.q_d == 0:
            return s


def test_l1_l2_properties_random():
    rng = random.Random(7)
    for _ in range(60):
        s = _random_divisible_instance(rng)
        l1, l2 = l1_l2(s)
        assert l1_l2(s, method="naive") == (l1, l2)
        # palindromic over degrees 0..d-1
        assert all(l1[i] == l1[s.d - 1 - i] for i in range(s.d))
        assert l1.eval(1) == s.n
        assert l2[0] == 1
        assert l2.eval(1) == 0
        for m in (1, 2, 3):
            assert hstar_family(s, m) == hstar_naive(DeltaQ(s.q_head, s.n * m))


# --- closed-form special families -------------------------------------------


def test_special_families_match_naive():
    cases = [
        r_odd(5, 2, 3),
        r_odd(8, 3, 6),
        r_even(5, 2, 3),
        r_even(11, 3, 4),
        extended_reeve(4, 3),
        extended_reeve(7, 5),
        extended_reeve(5, 6),
        all_minus_ones(4, 3),
        all_minus_ones(6, 2),
        pow2(4, 3),
        pow2(6, 2),
    ]
    for dq, closed in cases:
        assert hstar_naive(dq) == closed, dq


def test_extended_reeve_is_reeve_at_d3():
    dq, closed = extended_reeve(12, 3)
    assert dq.q_head == (1, 12)
    assert closed.poly == Poly((1, 0, 12))


def test_special_family_registry():
    dq, closed = special_family("pow2", d=5, m=2)
    assert hstar_naive(dq) == closed
    with pytest.raises(ValueError):
        special_family("nope")
