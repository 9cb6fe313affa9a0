"""Tests for the Delta(0,q) h* machinery.

The fixed expected values here were either computed with the independent
brute-force lattice oracle (see test_oracle.py) or are standard closed
forms; the fast path is always cross-checked against the naive summation.
"""

import random
import sys

import numpy  # noqa: F401  (loaded, so the in-process cut applies)
import pytest

from ehrsign import delta
from ehrsign.delta import (
    DeltaQ,
    DivisibilityError,
    HStar,
    all_minus_ones,
    breakpoints_for,
    difference_poly,
    extended_reeve,
    hstar,
    hstar_family,
    hstar_fast,
    hstar_naive,
    l1_l2,
    pow2,
    r_even,
    r_odd,
    reduce_q,
)
from ehrsign.delta import (
    _INT64_SAFE,
    _PASS_CUT,
    _NUMPY_CUT_WARM,
    _direct_sum_pays,
    _jumps_numpy_ok,
    _net_jumps,
    _numpy_pays,
    _net_jumps_numpy,
    _plateau_counts,
    _plateau_counts_numpy,
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
    # callers pass a reduced q, so |q_i| > n is an internal error
    with pytest.raises(AssertionError):
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


def test_fast_path_past_the_old_precondition():
    # derived q_d = -9 exceeds n here: hstar_fast reduces q to (-1, 1, 1)
    s = DeltaQ((4, 6), 5)
    assert reduce_q(s) == DeltaQ((-1, 1), 5)
    assert hstar_fast(s) == hstar_naive(s) == hstar_naive(reduce_q(s))
    assert hstar_fast(DeltaQ((900, 900), 5)) == hstar_naive(DeltaQ((900, 900), 5))


def test_hstar_dispatch():
    s = DeltaQ((4, 6), 5)
    assert hstar(s) == hstar_fast(s) == hstar_naive(s)


def test_reduce_q_examples():
    # the residues (5, 7, 9) of q = (5, -3, -1) sum to 21 = 1 + 2*10: the two
    # largest lose n, giving q back
    assert reduce_q(DeltaQ((5, -3), 10)) == DeltaQ((5, -3), 10)
    assert reduce_q(DeltaQ((9,), 10)) == DeltaQ((-1,), 10)  # sum |r| 17 -> 3
    # residues (5, 4, 6) sum to 15 = 1 + 2*7
    assert reduce_q(DeltaQ((10**20 + 3, -(10**19)), 7)).q_full == (-2, 4, -1)
    # n = 1: every Delta(0,q) is unimodular
    assert reduce_q(DeltaQ((4, -9, 2), 1)) == DeltaQ((0, 0, 0), 1)
    # equal residues (3, 3, 3) lose n by index
    assert reduce_q(DeltaQ((3, 3), 4)).q_full == (-1, -1, 3)


def test_huge_q_one_shot_answers_fast():
    # 2 breakpoints after reduction, where the defining sum has 10^8 terms
    s = DeltaQ((99_999_999_999_999, 1), 100_000_000)
    r = reduce_q(s)
    assert r == DeltaQ((-1, 1), 100_000_000)
    assert not _direct_sum_pays(r)
    assert hstar(s) == hstar_fast(s) == HStar(Poly((1, 0, 10**8 - 1)), 3)


def test_hstar_takes_the_cheaper_pass(monkeypatch):
    # both passes run in numpy here (n >= 512, sum |r_i| >= 200, numpy loaded)
    n = 100_000
    cheap = DeltaQ((1000, -999), n)  # r = q, sum |r_i| = 1999
    dense = DeltaQ((40_000 + 5 * n, -30_000), n)  # r = (40000, -30000, -9999)
    assert _PASS_CUT * _sum_abs(reduce_q(cheap)) <= 3 * n < _PASS_CUT * _sum_abs(reduce_q(dense))
    for s in (cheap, dense):
        assert hstar(s) == hstar_naive(s)
    calls = []
    monkeypatch.setattr(delta, "hstar_fast", lambda s: calls.append(("fast", s)))
    monkeypatch.setattr(delta, "hstar_naive", lambda s: calls.append(("naive", s)))
    hstar(cheap)
    hstar(dense)
    assert calls == [("fast", reduce_q(cheap)), ("naive", reduce_q(dense))]


def test_hstar_cold_keeps_the_loop_pass(monkeypatch):
    # n*d < 16 * sum |r_i| = 16 * 79,999, so with numpy loaded the direct sum
    # runs; without it, n = 10^5 is past the direct sum's cold cut and it
    # would import numpy, while the breakpoint pass stays on the loop
    r = reduce_q(DeltaQ((40_000, -30_000), 100_000))
    assert _direct_sum_pays(r)
    monkeypatch.delitem(sys.modules, "numpy")
    assert not _jumps_numpy_ok(r) and not _direct_sum_pays(r)


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


def test_hstar_naive_numpy_blocks_match_the_loop(monkeypatch):
    # blocks of 7 j, the last one short, against the big-int loop
    monkeypatch.setattr(delta, "_NAIVE_BLOCK", 7)
    cases = [DeltaQ((3, -2, 5), 1000), DeltaQ((1, 5, 6, 8, -3, -7), 517), DeltaQ((-1,) * 4, 520)]
    assert all(delta._exponents_numpy_ok(s) for s in cases)
    blocked = [hstar_naive(s) for s in cases]
    monkeypatch.setattr(delta, "_exponents_numpy_ok", lambda s: False)
    assert blocked == [hstar_naive(s) for s in cases]


def test_huge_n_fast_path():
    n = 10**12
    s = DeltaQ((17, -23, 5), n)
    h = hstar_fast(s)
    assert h.normalized_volume() == n
    assert h.poly[0] == 1


# --- the vectorized plateau pass ----------------------------------------------


def _sum_abs(s):
    return sum(abs(q) for q in s.q_full)


def _random_head(rng, d, total):
    """d-1 signed parts whose absolute values sum to total//2, so that
    sum |q_i|, the derived q_d included, lies between total/2 and about total."""
    cuts = sorted(rng.sample(range(1, total // 2), d - 2))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total // 2])]
    return tuple(p * rng.choice((1, -1)) for p in parts)


def _both_paths(s):
    """The plateau counts of the numpy helper, checked against the loop and
    (through the collector) against `_net_jumps`."""
    pos, net = _net_jumps_numpy(s)
    assert dict(zip(pos.tolist(), net.tolist())) == _net_jumps(s), s
    counts = _plateau_counts_numpy(s)
    assert counts == _plateau_counts(s), s
    assert all(type(c) is int for c in counts)
    return HStar(Poly(counts), s.d)


def test_vectorized_plateaus_match_naive():
    rng = random.Random(7)
    for _ in range(120):
        d = rng.randint(3, 12)
        head = _random_head(rng, d, rng.randint(2 * _NUMPY_CUT_WARM, 6000))
        bound = max(abs(q) for q in DeltaQ(head, 1).q_full)
        s = DeltaQ(head, rng.randint(bound, 5 * 10**4))
        assert _sum_abs(s) >= _NUMPY_CUT_WARM
        assert _both_paths(s) == hstar_naive(s), s


def test_vectorized_plateaus_at_coincident_breakpoints():
    n = 720
    cases = [
        (n, -n),  # q_i = n and q_i = -n: both staircases jump at every j
        (n, 1 - n, -n),
        (-n, 1, 2, -2),  # q_d = n
        (360, 240, -180, -144, -120),  # divisors of n
        (240, 240, -240, -240, 240),  # repeated q_i
        (7, 7, 7, -20),
        (1 - n,),  # q_d = n, d = 2
        (0, 0, -3),
    ]
    for head in cases:
        s = DeltaQ(head, n)
        assert _both_paths(s) == hstar_naive(s), head
    # a single breakpoint-free staircase: q = (0, 1) with n = 1
    assert _both_paths(DeltaQ((0,), 1)) == hstar_naive(DeltaQ((0,), 1))


def test_vectorized_plateaus_at_huge_n():
    rng = random.Random(12)
    for total in (10**3, 10**4, 2 * 10**5):
        s = DeltaQ(_random_head(rng, rng.randint(3, 10), total), 10**12)
        h = _both_paths(s)
        assert h.normalized_volume() == 10**12


def test_numpy_branch_guard_edge():
    # max |q_i| * n = 1024 * 2^52 = 2^62 must fall back to the loop; one less
    # is taken (sum |q_i| = 2047 is past the in-process cut)
    head = (1024, -1023)
    assert not _jumps_numpy_ok(DeltaQ(head, 2**52))
    s = DeltaQ(head, 2**52 - 1)
    assert max(abs(q) for q in s.q_full) * s.n < _INT64_SAFE <= 1024 * 2**52
    assert _jumps_numpy_ok(s)
    _both_paths(s)
    # just under the bound, with plateaus of ~10^18 that no float holds exactly
    for head in ((3, -2), (5, 2, -3), (-7, 6)):
        qmax = max(abs(q) for q in DeltaQ(head, 1).q_full)
        s = DeltaQ(head, (_INT64_SAFE - 1) // qmax)
        h = _both_paths(s)
        assert h.normalized_volume() == s.n


def test_numpy_pays_reads_whether_numpy_is_loaded(monkeypatch):
    assert _numpy_pays(10, 10, 100) and not _numpy_pays(9, 10, 100)
    monkeypatch.delitem(sys.modules, "numpy")  # as in a fresh interpreter
    assert not _numpy_pays(99, 10, 100) and _numpy_pays(100, 10, 100)


def test_hstar_fast_falls_back_past_int64(monkeypatch):
    calls = []
    monkeypatch.setattr(delta, "_plateau_counts_numpy", lambda s: calls.append(s))
    # r_odd: q = (a, -a, 1), n = s + 1, with a = 10^3 and n = 10^20
    s, expected = r_odd(10**20 - 1, 2, 1000)
    assert _sum_abs(s) >= _NUMPY_CUT_WARM and not _jumps_numpy_ok(s)
    assert hstar_fast(s) == expected
    assert hstar_fast(DeltaQ((1024, -1023), 2**52)).normalized_volume() == 2**52
    assert calls == []


def test_hstar_fast_takes_the_numpy_branch_past_the_cut(monkeypatch):
    calls = []

    def spy(s):
        calls.append(s)
        return _plateau_counts_numpy(s)

    monkeypatch.setattr(delta, "_plateau_counts_numpy", spy)
    above = DeltaQ((-(_NUMPY_CUT_WARM // 2),), 10**12)  # sum |q_i| = cut + 1
    below = DeltaQ((-(_NUMPY_CUT_WARM // 2) + 1,), 10**12)  # cut - 1
    h = hstar_fast(above)
    assert calls == [above]
    assert h.poly.coeffs == tuple(_plateau_counts(above))
    hstar_fast(below)
    assert calls == [above]


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


def _l1_l2_from_a_sum(s):
    # the reference: x*L1 as the A(j) sum, L2 = h* - x*L1
    l = delta._l_poly_naive(s)
    return Poly(l.coeffs[1:]), hstar_naive(s).poly - l


def test_l1_l2_methods_agree():
    for s in (DeltaQ((-3, -2), 6), DeltaQ((1, 2, 3, 3, 4, -5), 420)):
        assert l1_l2(s) == _l1_l2_from_a_sum(s)


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
        assert _l1_l2_from_a_sum(s) == (l1, l2)
        # palindromic over degrees 0..d-1
        assert all(l1[i] == l1[s.d - 1 - i] for i in range(s.d))
        assert l1.eval(1) == s.n
        assert l2[0] == 1
        assert l2.eval(1) == 0
        # the family identity h*(Delta(0,q^(m))) = m*x*L1 + L2
        for m in range(1, 6):
            scaled = hstar_naive(DeltaQ(s.q_head, s.n * m))
            assert l1.shift(1).scale(m) + l2 == scaled.poly, (s, m)
            assert hstar_family(s, m) == scaled


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

