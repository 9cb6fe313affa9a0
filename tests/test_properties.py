"""Hypothesis property tests: the fast path against the naive summation,
and structural identities that should hold on arbitrary valid inputs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ehrsign.delta import DeltaQ, difference_poly, hstar, hstar_fast, hstar_naive, reduce_q
from ehrsign.ehrhart import EhrhartPoly, _sgn, from_hstar, sign_vector
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


@given(st.lists(st.tuples(st.integers(-(10**30), 10**30), st.booleans()), max_size=10))
@settings(max_examples=60)
def test_poly_coeffs_do_not_depend_on_int_or_integral_fraction_input(pairs):
    # all-int input skips normalisation; Fraction(k, 1) input, alone or mixed
    # with ints, must normalise to the same int coefficients
    cs = [c for c, _ in pairs]
    mixed = [Fraction(c) if as_fraction else c for c, as_fraction in pairs]
    ints, fracs, mix = Poly(cs), Poly(Fraction(c) for c in cs), Poly(mixed)
    assert ints.coeffs == fracs.coeffs == mix.coeffs
    for p in (ints, fracs, mix):
        assert all(type(c) is int for c in p.coeffs)


@given(
    st.lists(st.integers(-(10**20), 10**20) | st.fractions(max_denominator=30), max_size=10),
    st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=40)
def test_compose_scale_is_the_power_formula(cs, r):
    p = Poly(cs)
    assert p.compose_scale(r) == Poly(c * r**i for i, c in enumerate(p.coeffs))


@st.composite
def ehrhart_polys(draw):
    """num/den with constant term den, positive top two coefficients, and
    middle coefficients of any sign, zero included."""
    dim = draw(st.integers(min_value=3, max_value=12))
    den = draw(st.integers(min_value=1, max_value=720))
    coeff = st.integers(-5, 5) | st.integers(-(10**40), 10**40)
    mid = draw(st.lists(coeff, min_size=dim - 2, max_size=dim - 2))
    top = draw(st.lists(st.integers(min_value=1, max_value=10**40), min_size=2, max_size=2))
    return EhrhartPoly.from_num(Poly([den, *mid, *top]), den, dim)


@given(ehrhart_polys())
@settings(max_examples=60)
def test_sign_vector_is_the_per_index_sign(e):
    assert sign_vector(e) == tuple(_sgn(e.num[i]) for i in range(e.dim - 2, 0, -1))
