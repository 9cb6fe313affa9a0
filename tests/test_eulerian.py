import math

import pytest

from ehrsign.delta import DeltaQ, HStar, hstar_family, hstar_fast, hstar_naive, l1_l2
from ehrsign.eulerian import (
    EulerianS,
    aleph,
    aleph_inv,
    descent_formula,
    descents,
    eulerian_descent,
    eulerian_recurrence,
    lehmer_decode,
    lehmer_encode,
    sdm_ehrhart,
    sdm_hstar,
    sdm_q_head,
)
from ehrsign.polynomials import Poly


def test_eulerian_small():
    assert eulerian_recurrence(1) == Poly((0, 1))
    assert eulerian_recurrence(2) == Poly((0, 1, 1))
    assert eulerian_recurrence(3) == Poly((0, 1, 4, 1))
    assert eulerian_recurrence(5) == Poly((0, 1, 26, 66, 26, 1))
    with pytest.raises(ValueError):
        eulerian_recurrence(0)


def test_eulerian_properties():
    for d in range(1, 9):
        a = eulerian_recurrence(d)
        assert a.eval(1) == math.factorial(d)
        assert a[0] == 0
        # palindromic: A(d,i) = A(d,d+1-i)
        assert all(a[i] == a[d + 1 - i] for i in range(1, d + 1))


def test_lehmer_round_trip():
    assert lehmer_decode((0, 0, 0)) == (1, 2, 3)
    assert lehmer_decode((2, 1, 0)) == (3, 2, 1)
    assert lehmer_encode((3, 1, 4, 2)) == (2, 0, 1, 0)
    for d in range(1, 7):
        for n in range(math.factorial(d)):
            code = aleph_inv(n, d)
            perm = lehmer_decode(code)
            assert lehmer_encode(perm) == code
            assert aleph(code) == n


def test_lehmer_validation():
    with pytest.raises(ValueError):
        lehmer_decode((3, 0, 0))  # c_1 must be <= 2 for d=3
    with pytest.raises(ValueError):
        lehmer_encode((1, 1, 2))
    with pytest.raises(ValueError):
        aleph_inv(6, 3)
    with pytest.raises(ValueError):
        aleph_inv(-1, 3)


def test_descents():
    assert descents((1, 2, 3)) == 0
    assert descents((3, 2, 1)) == 2
    assert descents((2, 1, 4, 3)) == 2


def test_descent_formula_exhaustive_small():
    for d in range(2, 7):
        for n in range(math.factorial(d)):
            direct = descents(lehmer_decode(aleph_inv(n, d)))
            assert descent_formula(n, d) == direct, (n, d)


def test_eulerian_descent_matches_recurrence():
    for d in range(2, 11):  # d >= 8 takes the numpy summation
        assert eulerian_descent(d) == eulerian_recurrence(d)
    with pytest.raises(ValueError):
        eulerian_descent(11)  # above the default summand limit


def test_sdm_q_head_values():
    assert sdm_q_head(2) == (-1,)
    assert sdm_q_head(3) == (-3, -2)
    assert sdm_q_head(4) == (-12, -8, -3)
    assert sdm_q_head(5) == (-60, -40, -15, -4)


def test_sdm_simplex():
    s = EulerianS(3, 2)
    assert s.delta == DeltaQ((-3, -2), 12)
    assert s.delta.q_d == 6
    assert s.vertices()[-1] == (-3, -2, 12)
    assert EulerianS(1, 5).vertices() == [(0,), (5,)]
    with pytest.raises(ValueError):
        EulerianS(0, 1)
    with pytest.raises(ValueError):
        EulerianS(1, 5).delta


def test_sdm_hstar_closed_form():
    # x * h* = A_d(x) * ((m-1)x + 1)
    for d in range(1, 8):
        for m in (1, 2, 3):
            h = sdm_hstar(d, m)
            if d == 1:
                assert h.poly == Poly((1, m - 1))
                continue
            lhs = h.poly.shift(1)
            rhs = eulerian_recurrence(d) * Poly((1, m - 1))
            assert lhs == rhs, (d, m)


def test_sdm_hstar_examples():
    assert sdm_hstar(3, 2).poly == Poly((1, 5, 5, 1))
    assert sdm_hstar(5, 1).poly == Poly((1, 26, 66, 26, 1))


def test_sdm_numerator_decomposition():
    # h*(S_d(m)) = m*A_d(x) + T(x) with the fixed residual T below
    residuals = {
        3: Poly((1, 3, -3, -1)),
        4: Poly((1, 10, 0, -10, -1)),
        5: Poly((1, 25, 40, -40, -25, -1)),
    }
    for d, t_poly in residuals.items():
        for m in (1, 2, 4):
            expected = eulerian_recurrence(d).scale(m) + t_poly
            assert sdm_hstar(d, m).poly == expected, (d, m)


def test_sdm_hstar_matches_lattice_definition():
    for d in range(2, 6):
        for m in (1, 2):
            assert sdm_hstar(d, m) == hstar_naive(EulerianS(d, m).delta), (d, m)


def test_breakpoint_pass_on_sdm_past_d8():
    # hstar sends S_9(m) to the direct sum (_direct_sum_pays), so only a
    # direct call reaches the breakpoint pass at d = 9
    for m in (1, 2):
        assert hstar_fast(EulerianS(9, m).delta) == sdm_hstar(9, m), m


def test_sdm_is_family_member():
    # S_d(m) is the m-th member of the family based at S_d(1): L1 = A_d(x)/x
    for d in (3, 4, 5):
        base = EulerianS(d, 1).delta
        l1, l2 = l1_l2(base)
        assert l1.shift(1) == eulerian_recurrence(d)
        for m in (2, 3):
            assert hstar_family(base, m) == sdm_hstar(d, m)


def test_alternative_eulerian_family():
    # a second family with the same A_5 part but different residual
    t_hat = Poly((1, 3, 10, -3, -10, -1))
    for m in (1, 2, 3):
        s = DeltaQ((-20, -10, 3, 4), 120 * m)
        expected = eulerian_recurrence(5).scale(m) + t_hat
        assert hstar_naive(s).poly == expected, m


def test_sdm_ehrhart():
    assert sdm_ehrhart(3, 5) == Poly((1, 3, 3, 5))
    assert sdm_ehrhart(1, 7) == Poly((1, 7))
    assert sdm_ehrhart(4, 1) == Poly((1, 1)) ** 4
    for d in range(1, 9):
        for m in (1, 2, 5):
            p = sdm_ehrhart(d, m)
            assert p[d] == m
            assert all(p[i] == math.comb(d, i) for i in range(d))


def test_sdm_errors():
    for fn in (sdm_hstar, sdm_ehrhart):
        with pytest.raises(ValueError):
            fn(0, 1)
        with pytest.raises(ValueError):
            fn(3, 0)
