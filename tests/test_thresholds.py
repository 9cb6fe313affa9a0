"""Two-path cross-check of the constructor's proven parameters.

The constructor reads every threshold off integer numerators.  The
references here are the same formulas in Fraction arithmetic on the public
`.poly` view; both paths must give the same r and m.
"""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrsign import signpattern
from ehrsign.ehrhart import EhrhartPoly, Interval, Quad, ReeveT, _sgn, block_ehrhart
from ehrsign.polynomials import Poly
from ehrsign.signpattern import SearchExhausted, construct


# --- the Fraction references ------------------------------------------------


def ref_floor_ratio(num, den) -> int:
    f = abs(Fraction(num)) / abs(Fraction(den))
    return f.numerator // f.denominator


def ref_product_threshold(p1, d1, p2, pattern, d):
    r0 = 2
    for idx, s in enumerate(pattern):
        j = d - 2 - idx
        k_star = min(j, d1)
        dom = Fraction(p1[k_star]) * Fraction(p2[j - k_star])
        if dom == 0 or _sgn(dom) != s:
            return None
        rest = sum(abs(Fraction(p1[k]) * Fraction(p2[j - k])) for k in range(k_star))
        if rest:
            r0 = max(r0, ref_floor_ratio(rest, dom) + 1)
    return r0


def ref_solve_size(qr, make_block, pattern, d, case):
    p1, p2 = (block_ehrhart(make_block(m)).poly for m in (1, 2))
    A, B = qr * (p2 - p1), qr * (p1.scale(2) - p2)
    need = 1
    for idx, s in enumerate(pattern):
        j = d - 2 - idx
        a, b = A[j], B[j]
        if _sgn(b if a == 0 else a) != s:
            raise SearchExhausted(case, pattern)
        if _sgn(b) != s:
            need = max(need, ref_floor_ratio(b, a) + 1)
    return need


def ref_case1_r(c, d):
    return 1 + max(ref_floor_ratio(c[j - 1], c[j]) for j in range(1, d - 1))


def ref_case3_r(c, d):
    return 1 + max(ref_floor_ratio(c[j - 3], c[j - 1]) for j in range(1, d - 1))


def _outcome(fn, *args):
    """fn's value, or the SearchExhausted case it raised."""
    try:
        return fn(*args)
    except SearchExhausted as exc:
        return ("exhausted", exc.case)


# --- every sub-witness of lengths <= 8 ---------------------------------------


def _sub(pattern):
    """The Fraction polynomial of the memoized sub-witness for pattern, the
    empty (dimension 2) pattern included."""
    return signpattern._construct(tuple(pattern)).ehrhart.poly


def _params(step):
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", step)}


def _reference_params(pattern):
    """Recompute the first step's parameters of construct(pattern) from its
    sub-witnesses' Fraction polynomials."""
    d = len(pattern) + 2
    step = construct(pattern).trace[0]
    case = step.partition("[")[0]
    if case == "case1":
        c = _sub(pattern[1:])
        return case, {"r": ref_case1_r(c, d)}
    if case == "case2":
        c = _sub(pattern[:-1])
        return case, {"m": ref_solve_size(c, Interval, pattern, d, case)}
    if case == "case3":
        c = _sub(tuple(-s for s in pattern[2:-1]))
        r = ref_case3_r(c, d)
        return case, {"r": r, "m": ref_solve_size(c.compose_scale(r), ReeveT, pattern, d, case)}
    if case.startswith("case5"):
        p = _params(step)
        k = p["d1"] if case == "case5.1" else p["d2"]
        top = _sub(pattern[d - k :])
        low = _sub(pattern[: d - k - 2])
        r = ref_product_threshold(top, k, low, pattern, d)
        return case, {"d1": p["d1"], "d2": p["d2"], "r": r}
    return case, _params(step)


def test_integer_thresholds_match_fraction_references_up_to_length_8():
    seen = set()
    for length in range(1, 9):
        for pattern in itertools.product((1, -1), repeat=length):
            case, expected = _reference_params(pattern)
            assert _params(construct(pattern).trace[0]) == expected, (pattern, case)
            seen.add(case)
    assert {"case1", "case2", "case3", "case5.1", "case5.2", "case6"} <= seen


# --- Hypothesis-drawn rational polynomials -----------------------------------


@st.composite
def rational_ehrhart(draw, dim):
    """A valid Ehrhart-shaped rational polynomial of degree dim: constant
    term 1, positive top two coefficients, arbitrary middle ones, over
    denominators drawn independently per coefficient."""
    def coeff(lo):
        num = draw(st.integers(min_value=lo, max_value=10**6))
        return Fraction(num, draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 12, 24, 120, 720))))

    middle = [coeff(-(10**6)) for _ in range(dim - 2)]
    top = [coeff(1) for _ in range(min(dim, 2))]
    return EhrhartPoly(Poly([1, *middle, *top]), dim)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_product_threshold_matches_reference(data):
    d1 = data.draw(st.integers(min_value=1, max_value=7))
    d2 = data.draw(st.integers(min_value=max(1, 3 - d1), max_value=7))
    d = d1 + d2
    e1 = data.draw(rational_ehrhart(d1))
    e2 = data.draw(rational_ehrhart(d2))

    def dominant_sign(j):
        k = min(j, d1)
        return _sgn(e1.poly[k] * e2.poly[j - k]) or 1

    pattern = tuple(dominant_sign(j) for j in range(d - 2, 0, -1))
    if data.draw(st.booleans()):
        pattern = tuple(data.draw(st.sampled_from((1, -1))) for _ in pattern)
    got = signpattern._product_threshold(e1.num, d1, e2.num, pattern, d)
    assert got == ref_product_threshold(e1.poly, d1, e2.poly, pattern, d)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_solve_size_matches_reference(data):
    block, bdim, case = data.draw(
        st.sampled_from(((Interval, 1, "case2"), (ReeveT, 3, "case3"), (Quad, 2, "quad")))
    )
    k = data.draw(st.integers(min_value=max(1, 3 - bdim), max_value=8))
    e = data.draw(rational_ehrhart(k))
    r = data.draw(st.sampled_from((1, 2, 3, 5, 6, 12, 1000)))
    d = k + bdim
    pattern = tuple(data.draw(st.sampled_from((1, -1))) for _ in range(d - 2))
    qr = e.poly.compose_scale(r)
    got = _outcome(signpattern._solve_size, EhrhartPoly(qr, k).num, block, pattern, d, case)
    assert got == _outcome(ref_solve_size, qr, block, pattern, d, case)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_floor_ratio_of_numerators_matches_reference(data):
    """Cases 1 and 3 divide two coefficients of one polynomial."""
    dim = data.draw(st.integers(min_value=1, max_value=10))
    e = data.draw(rational_ehrhart(dim))
    for i in range(dim + 1):
        for j in range(dim + 1):
            if e.num[j]:
                got = signpattern._floor_ratio(e.num[i], e.num[j])
                assert got == ref_floor_ratio(e.poly[i], e.poly[j])


def test_floor_ratio_is_integer_floor():
    assert signpattern._floor_ratio(-7, 2) == 3
    assert signpattern._floor_ratio(7, -7) == 1
    assert signpattern._floor_ratio(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        signpattern._floor_ratio(1, 0)
    assert math.floor(Fraction(10**40 + 1, 3)) == signpattern._floor_ratio(10**40 + 1, -3)
