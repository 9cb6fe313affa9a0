"""The ten acceptance criteria, one test each, with an explicit PASS line
printed on success (run with -rP or -s to see them).  All comparisons are
exact; the only tolerances are the stated runtime budgets."""

import itertools
import math
import random
import time

from ehrsign.delta import (
    DeltaQ,
    hstar,
    hstar_family,
    hstar_fast,
    hstar_naive,
    l1_l2,
)
from ehrsign.delta import difference_poly
from ehrsign.ehrhart import from_hstar, sign_vector
from ehrsign.eulerian import (
    EulerianS,
    aleph_inv,
    descent_formula,
    descents,
    eulerian_descent,
    eulerian_recurrence,
    lehmer_decode,
    sdm_ehrhart,
    sdm_hstar,
)
from ehrsign.oracle import count_points
from ehrsign.polynomials import Poly, poly_to_text
from ehrsign.signpattern import WeightTable, construct, construct_case6, predict_signs, target_pattern, verify_expr
from fractions import Fraction


def _report(num, detail):
    print(f"ACCEPTANCE CRITERION {num}: PASS ({detail})")


def test_criterion_1_golden_example():
    s = DeltaQ((1, 5, 6, 8, -3, -7), 20)
    expected = Poly((1, 0, 0, 7, 9, 3))
    best = min(
        _timed(lambda: (hstar_naive(s), hstar_fast(s)))[1] for _ in range(3)
    )
    h_naive, h_fast = hstar_naive(s), hstar_fast(s)
    assert h_naive.poly == expected
    assert h_fast.poly == expected
    assert poly_to_text(difference_poly(s)) == (
        "4*x - x^3 + x^4 - x^7 + x^8 - x^9 + 2*x^11 - 2*x^12 + 2*x^13"
        " - x^14 - x^15 + 2*x^17 - x^18"
    )
    assert best < 0.010, f"golden example took {best * 1000:.2f} ms"
    _report(1, f"both methods in {best * 1000:.2f} ms")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _random_fast_instance(rng, max_d=10, max_q=50, max_n=10**5):
    while True:
        d = rng.randint(2, max_d)
        head = tuple(rng.randint(-max_q, max_q) for _ in range(d - 1))
        bound = max(abs(q) for q in DeltaQ(head, 1).q_full)
        if bound > max_n:
            continue
        return DeltaQ(head, rng.randint(bound, max_n))


def test_criterion_2_differential_fuzz():
    rng = random.Random(20240)
    t0 = time.perf_counter()
    for i in range(1000):
        s = _random_fast_instance(rng)
        assert hstar_fast(s) == hstar_naive(s), s
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"fuzz took {elapsed:.1f} s"
    _report(2, f"1000 instances in {elapsed:.1f} s")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(333)
    t0 = time.perf_counter()
    for i in range(50):
        d = rng.randint(2, 4)
        head = tuple(rng.randint(-6, 6) for _ in range(d - 1))
        s = DeltaQ(head, rng.randint(1, 20))
        h = hstar_naive(s)
        # agreement at t = 0..d fixes the degree-d polynomial
        ehr = from_hstar(h, d)
        counts = [count_points(s, t) for t in range(d + 1)]
        assert [c.count for c in counts] == [ehr.eval(t) for t in range(d + 1)], s
        # the lattice identities h_1 = count(1) - (d+1), h_d = interior(1)
        assert h.poly[1] == counts[1].count - (d + 1), s
        assert h.poly[d] == counts[1].interior_count, s
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f} s"
    _report(3, f"50 instances in {elapsed:.1f} s")


def test_criterion_4_reeve_family():
    for m in range(1, 21):
        h = hstar_naive(DeltaQ((1, 1), m))
        e = from_hstar(h, 3)
        assert e.poly == Poly((1, Fraction(12 - m, 6), 1, Fraction(m, 6))), m
    assert from_hstar(hstar_naive(DeltaQ((1, 1), 12)), 3).poly[1] == 0
    _report(4, "m = 1..20 including the zero coefficient at m = 12")


def _random_divisible_instance(rng):
    n = rng.choice((12, 24, 36, 60, 120, 360))
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    while True:
        d = rng.randint(2, 7)
        head = tuple(rng.choice(divisors) * rng.choice((1, -1)) for _ in range(d - 1))
        s = DeltaQ(head, n)
        if s.q_d != 0 and n % s.q_d == 0:
            return s


def test_criterion_5_characteristic_polynomials():
    # three fixed instances with known L1/L2
    s3 = DeltaQ((-1, -1), 3)
    assert l1_l2(s3) == (Poly((1, 1, 1)), Poly((1, 0, 0, -1)))
    p4 = DeltaQ((-1, -2, -4), 8)
    assert l1_l2(p4) == (Poly((1, 1)) ** 3, Poly((1, -1)) * Poly((1, 1)) ** 3)
    nu = DeltaQ((1, 2, 3, 3, 4, -5), 420)
    l1, l2 = l1_l2(nu)
    assert l1 == Poly((0, 0, 159, 102, 159))
    assert hstar_naive(nu).poly == l1.shift(1) + l2

    rng = random.Random(55)
    for _ in range(200):
        s = _random_divisible_instance(rng)
        l1, l2 = l1_l2(s)
        assert all(l1[i] == l1[s.d - 1 - i] for i in range(s.d)), s
        assert l1.eval(1) == s.n and l2[0] == 1 and l2.eval(1) == 0, s
        for m in (1, 2, 3):
            assert hstar_family(s, m) == hstar_naive(DeltaQ(s.q_head, s.n * m)), (s, m)
    _report(5, "3 fixed + 200 random family instances")


def test_criterion_6_eulerian_machinery():
    t0 = time.perf_counter()
    checks = 0
    for d in range(2, 9):
        for n in range(math.factorial(d)):
            direct = descents(lehmer_decode(aleph_inv(n, d)))
            assert descent_formula(n, d) == direct, (n, d)
            checks += 1
    for d in range(2, 11):
        assert eulerian_descent(d) == eulerian_recurrence(d), d
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"eulerian sweep took {elapsed:.1f} s"
    _report(6, f"{checks} descent checks + d <= 10 polynomials in {elapsed:.1f} s")


def test_criterion_7_sdm():
    for d in range(1, 9):
        a = eulerian_recurrence(d) if d >= 1 else None
        for m in range(1, 6):
            h = sdm_hstar(d, m)
            assert h.poly.shift(1) == a * Poly((1, m - 1)), (d, m)
            p = sdm_ehrhart(d, m)
            assert p[d] == m and all(p[i] == math.comb(d, i) for i in range(d))
            assert p == from_hstar(h, d).poly, (d, m)
    # hstar in the paper's regime, up to d = 10: n = m*d! and sum |r| = n - 1
    for d in range(2, 11):
        for m in (1, 2):
            s = EulerianS(d, m).delta
            assert sdm_hstar(d, m) == hstar(s), (d, m)
            if d <= 6:
                assert sdm_hstar(d, m) == hstar_naive(s), (d, m)
    h = sdm_hstar(6, 10).poly
    chain = [h[0], h[6], h[1], h[5], h[2], h[4], h[3]]
    assert h[0] == 1
    assert all(a < b for a, b in zip(chain, chain[1:])), chain
    assert all(h[i] ** 2 > h[i - 1] * h[i + 1] for i in range(1, 6))
    _report(7, "closed forms, lattice agreement, and the (6,10) chain")


def test_criterion_8_sign_pattern_resolution():
    t0 = time.perf_counter()
    total = 0
    worst = 0.0
    for length in range(1, 8):
        for pattern in itertools.product((1, -1), repeat=length):
            t1 = time.perf_counter()
            res = construct(pattern)
            dt = time.perf_counter() - t1
            worst = max(worst, dt)
            assert dt < 30, (pattern, dt)
            assert verify_expr(res.expr, pattern), pattern
            assert sign_vector(res.ehrhart) == pattern, pattern
            total += 1
    assert total == 254
    rng = random.Random(1212)
    for length in (8, 9, 10):
        for _ in range(20):
            pattern = tuple(rng.choice((1, -1)) for _ in range(length))
            res = construct(pattern)
            assert verify_expr(res.expr, pattern), pattern
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800, f"sweep took {elapsed:.1f} s"
    _report(
        8,
        f"{total} patterns in {elapsed:.1f} s, worst single {worst * 1000:.0f} ms",
    )


def _compositions(total, min_part=2):
    if total == 0:
        yield ()
        return
    for first in range(min_part, total + 1):
        for rest in _compositions(total - first, min_part):
            yield (first,) + rest


def test_criterion_9_greedy_optimality():
    count = 0
    for total in range(2, 13):
        for d_list in _compositions(total):
            table = WeightTable(d_list)
            for x in range(table.D + 1):
                assert table.W(x) == table.brute_force_W(x), (d_list, x)
            assert predict_signs(d_list) == target_pattern(d_list), d_list
            count += 1
    # the realized witness agrees with the prediction
    for d_list in ((3,), (2, 2), (2, 2, 2)):
        _, ehr, _ = construct_case6(list(d_list))
        assert sign_vector(ehr) == predict_signs(d_list), d_list
    _report(9, f"{count} degree sequences with sum <= 12")


def test_criterion_10_fast_path_performance():
    rng = random.Random(10**6 + 7)
    n = 10**12
    times = []
    for _ in range(20):
        d = rng.randint(5, 10)
        # head sums to at most ~5000 in absolute value, so the derived q_d
        # keeps the overall sum of |q_i| within 10^4
        per_coord = (5000 - d) // (d - 1)
        head = tuple(rng.randint(-per_coord, per_coord) for _ in range(d - 1))
        s = DeltaQ(head, n)
        assert sum(abs(q) for q in s.q_full) <= 10**4
        t0 = time.perf_counter()
        h = hstar_fast(s)
        times.append(time.perf_counter() - t0)
        assert h.normalized_volume() == n
    times.sort()
    median = times[len(times) // 2]
    assert median < 0.100, f"median {median * 1000:.1f} ms"
    _report(10, f"n = 10^12, median {median * 1000:.2f} ms over 20 trials")
