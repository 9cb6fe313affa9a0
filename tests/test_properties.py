"""Hypothesis property tests: the fast path against the naive summation,
and structural identities that should hold on arbitrary valid inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ehrsign.delta import DeltaQ, difference_poly, hstar, hstar_fast, hstar_naive, reduce_q
from ehrsign.ehrhart import from_hstar
from ehrsign.eulerian import lehmer_decode, lehmer_encode
from ehrsign.polynomials import Poly


@st.composite
def fast_path_instances(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    head = tuple(
        draw(st.integers(min_value=-25, max_value=25)) for _ in range(d - 1)
    )
    bound = max(abs(q) for q in DeltaQ(head, 1).q_full)
    n = draw(st.integers(min_value=bound, max_value=bound + 300))
    return DeltaQ(head, n)


@given(fast_path_instances())
@settings(max_examples=150, deadline=None)
def test_fast_equals_naive(s):
    assert hstar_fast(s) == hstar_naive(s)


@st.composite
def huge_q_instances(draw):
    """|q_i| up to 10^19, far past n <= 300."""
    d = draw(st.integers(min_value=2, max_value=7))
    head = tuple(draw(st.integers(min_value=-(10**19), max_value=10**19)) for _ in range(d - 1))
    return DeltaQ(head, draw(st.integers(min_value=1, max_value=300)))


def _sum_abs(s):
    return sum(abs(q) for q in s.q_full)


@given(huge_q_instances())
@settings(max_examples=150, deadline=None)
def test_every_pass_agrees_past_the_old_precondition(s):
    assert hstar_naive(s) == hstar_fast(s) == hstar(s)


@given(huge_q_instances())
@settings(max_examples=200, deadline=None)
def test_reduce_q_is_a_small_idempotent_representative(s):
    r = reduce_q(s)
    assert r.n == s.n and r.d == s.d
    assert sum(r.q_full) == 1
    assert all(abs(x) <= s.n for x in r.q_full)
    assert all((x - q) % s.n == 0 for x, q in zip(r.q_full, s.q_full))
    assert reduce_q(r) == r


@given(fast_path_instances())
@settings(max_examples=200, deadline=None)
def test_reduce_q_never_adds_breakpoints(s):
    # with every |q_i| < n the breakpoint pass's work cannot grow
    if max(abs(q) for q in s.q_full) < s.n:
        assert _sum_abs(reduce_q(s)) <= _sum_abs(s)


@given(fast_path_instances())
@settings(max_examples=80, deadline=None)
def test_hstar_structure(s):
    h = hstar_naive(s)
    assert h.poly[0] == 1
    assert h.normalized_volume() == s.n
    assert h.poly.degree <= s.d
    assert all(c >= 0 for c in h.poly.coeffs)


@given(fast_path_instances())
@settings(max_examples=60, deadline=None)
def test_difference_poly_telescopes(s):
    # F(x) encodes the jumps, so its coefficients sum to the final height
    f = difference_poly(s)
    total = sum(f.coeffs)
    q_sum = sum(-((-q * (s.n - 1)) // s.n) for q in s.q_full)
    assert total == q_sum


@given(fast_path_instances())
@settings(max_examples=40, deadline=None)
def test_ehrhart_count_at_t_equals_one(s):
    # only h_0 and h_1 survive at t = 1: i(P,1) = (d+1) + h_1
    h = hstar_naive(s)
    e = from_hstar(h, s.d).poly
    assert e.eval(1) == (s.d + 1) + h.poly[1]


@given(st.permutations(list(range(1, 8))))
def test_lehmer_round_trip(perm):
    assert lehmer_decode(lehmer_encode(tuple(perm))) == tuple(perm)


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
       st.lists(st.integers(min_value=-50, max_value=50), max_size=8))
def test_poly_ring_laws(a, b):
    p, q = Poly(a or [0]), Poly(b or [0])
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p
    assert p * Poly.one() == p
    assert (p * q).eval(3) == p.eval(3) * q.eval(3)
