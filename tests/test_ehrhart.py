import dataclasses
import math
from fractions import Fraction

import pytest

from ehrsign.delta import DeltaQ, hstar, hstar_naive
from ehrsign.ehrhart import (
    Delta,
    EhrhartPoly,
    EulerianS,
    Interval,
    PolytopeExpr,
    Quad,
    ReeveT,
    StdSimplex,
    block_ehrhart,
    block_from_json,
    block_to_json,
    ehr_dilate,
    ehr_product,
    expr_ehrhart,
    expr_from_json,
    expr_to_json,
    from_hstar,
    sign_vector,
)
from ehrsign.eulerian import sdm_hstar
from ehrsign.oracle import count_points, count_quad_points
from ehrsign.polynomials import Poly, binom_poly


def reeve_poly(m):
    return Poly((1, Fraction(12 - m, 6), 1, Fraction(m, 6)))


def test_ehrhart_poly_validation():
    EhrhartPoly(Poly((1, 1)), 1)
    with pytest.raises(ValueError):
        EhrhartPoly(Poly((2, 1)), 1)  # constant term
    with pytest.raises(ValueError):
        EhrhartPoly(Poly((1, 1)), 2)  # degree mismatch
    with pytest.raises(ValueError):
        EhrhartPoly(Poly((1, 1, -1)), 2)  # negative volume
    with pytest.raises(ValueError):
        EhrhartPoly(Poly((1, -1, 0, 1)), 3)  # second coefficient not positive


def test_from_hstar_reeve_family():
    # 1 + (m-1)x^2 converts to the cubic with t-coefficient (12-m)/6;
    # m = 12 exercises an exact zero there
    for m in range(1, 21):
        h = hstar(DeltaQ((1, 1), m))
        assert from_hstar(h, 3).poly == reeve_poly(m), m


def test_from_hstar_eulerian():
    assert from_hstar(sdm_hstar(4, 3), 4).poly == Poly((1, 4, 6, 4, 3))


def test_from_hstar_trivial():
    p = from_hstar(hstar(DeltaQ((0, 0), 1)), 2)
    assert p.poly == Poly((1, Fraction(3, 2), Fraction(1, 2)))


def test_from_hstar_degree_guard():
    with pytest.raises(ValueError):
        from_hstar(sdm_hstar(4, 3), 3)


def test_block_validation():
    for bad in (lambda: Interval(0), lambda: ReeveT(0), lambda: Quad(0),
                lambda: EulerianS(0, 1), lambda: EulerianS(1, 0),
                lambda: StdSimplex(0)):
        with pytest.raises(ValueError):
            bad()


def test_block_ehrhart_closed_forms():
    assert block_ehrhart(Interval(5)).poly == Poly((1, 5))
    assert block_ehrhart(ReeveT(13)).poly == reeve_poly(13)
    assert block_ehrhart(EulerianS(3, 2)).poly == Poly((1, 3, 3, 2))
    assert block_ehrhart(Quad(4)).poly == Poly((1, 2, 4))
    assert block_ehrhart(StdSimplex(3)).poly == Poly(
        (1, Fraction(11, 6), 1, Fraction(1, 6))
    )
    d = Delta(DeltaQ((1, 1), 13))
    assert block_ehrhart(d).poly == reeve_poly(13)


def test_quad_closed_form_against_direct_count():
    # a*t^2 + 2t + 1 matches raw 2-D counts at t = 0, 1, 2, which fix a quadratic
    for a in (1, 2, 3):
        closed = block_ehrhart(Quad(a))
        assert closed.poly == Poly((1, 2, a))
        for t in (0, 1, 2):
            assert count_quad_points(a, t) == closed.eval(t), (a, t)


def test_std_simplex_against_direct_count():
    # the d = 1 simplex is [0, 1], whose t-th dilate holds t + 1 points; for
    # d >= 2 it is Delta(0, (0,...,0)) with n = 1
    assert block_ehrhart(StdSimplex(1)).poly == Poly((1, 1))
    for d in (2, 3, 4):
        p = block_ehrhart(StdSimplex(d)).poly
        s = DeltaQ((0,) * (d - 1), 1)
        for t in range(4):
            assert p.eval(t) == count_points(s, t).count


def test_ehr_product():
    a = EhrhartPoly(Poly((1, 2)), 1)
    b = EhrhartPoly(Poly((1, 3)), 1)
    prod = ehr_product(a, b)
    assert prod.poly == Poly((1, 5, 6))
    assert prod.dim == 2


def test_ehr_product_identity():
    p = block_ehrhart(ReeveT(7))
    combined = ehr_product(p, EhrhartPoly(Poly((1, 1)), 1))
    assert combined.poly == p.poly * Poly((1, 1))
    assert combined.dim == 4
    assert combined.poly[0] == 1


def test_ehr_dilate():
    assert ehr_dilate(block_ehrhart(Interval(1)), 5).poly == Poly((1, 5))
    r2 = ehr_dilate(block_ehrhart(ReeveT(1)), 2)
    assert r2.poly == Poly((1, Fraction(22, 6), 4, Fraction(8, 6)))
    p = block_ehrhart(Quad(3))
    assert ehr_dilate(p, 1).poly == p.poly
    with pytest.raises(ValueError):
        ehr_dilate(p, 0)


def _fraction_from_hstar(h, d):
    """sum_i h_i * C(t + d - i, d) in Fraction arithmetic, as a reference."""
    out = Poly.zero()
    for i, c in enumerate(h.poly.coeffs):
        out = out + binom_poly(d - i, d).scale(c)
    return out


_BIG_DELTA = DeltaQ((1, 5, 6, 8, -3, -7), 20)

# (block, its Ehrhart polynomial in Fraction form, the expected denominator)
INTEGER_FORM_CASES = [
    (Interval(4), Poly((1, 4)), 1),
    (ReeveT(1), reeve_poly(1), 6),
    (ReeveT(2), reeve_poly(2), 3),
    (ReeveT(12), reeve_poly(12), 1),
    (ReeveT(13), reeve_poly(13), 6),
    (EulerianS(3, 2), Poly((1, 3, 3, 2)), 1),
    (Quad(4), Poly((1, 2, 4)), 1),
    *((StdSimplex(d), binom_poly(d, d), math.factorial(d)) for d in range(1, 7)),
    (Delta(DeltaQ((1, 1), 13)), reeve_poly(13), 6),
    *(
        (Delta(s), _fraction_from_hstar(hstar_naive(s), s.d), None)
        for s in (DeltaQ((0, 0), 1), DeltaQ((3, -2, 5), 31), _BIG_DELTA)
    ),
]


def _assert_integer_form(e, poly):
    """e stores poly as integer numerators over the lcm of its denominators."""
    assert e.poly == poly
    assert all(type(c) is int for c in e.num.coeffs)
    assert e.den == math.lcm(*(Fraction(c).denominator for c in poly.coeffs))
    assert math.gcd(e.den, *e.num.coeffs) == 1
    assert e.num == poly.scale(e.den)


@pytest.mark.parametrize("block,poly,den", INTEGER_FORM_CASES)
def test_integer_form_of_every_block_kind(block, poly, den):
    e = block_ehrhart(block)
    _assert_integer_form(e, poly)
    if den is not None:
        assert e.den == den
    assert EhrhartPoly(poly, block.dim) == e
    assert EhrhartPoly(poly, block.dim).poly == poly


def test_integer_form_products_and_dilations_match_fractions():
    ehrs = [block_ehrhart(block) for block, _, _ in INTEGER_FORM_CASES]
    for a in ehrs:
        for r in (1, 2, 3, 6, 12, 35):
            _assert_integer_form(ehr_dilate(a, r), a.poly.compose_scale(r))
        for b in ehrs:
            prod = ehr_product(a, b)
            _assert_integer_form(prod, a.poly * b.poly)
            assert prod.dim == a.dim + b.dim


def test_integer_form_equality_and_hash_are_structural():
    # 6 * ReeveT(1) has integer coefficients: the dilation reduces to den 1
    dilated = ehr_dilate(block_ehrhart(ReeveT(1)), 6)
    assert (dilated.num, dilated.den) == (Poly((1, 11, 36, 36)), 1)
    same = EhrhartPoly(Poly((1, 11, 36, 36)), 3)
    assert dilated == same and hash(dilated) == hash(same)
    assert len({dilated, same, block_ehrhart(ReeveT(1))}) == 2
    unreduced = EhrhartPoly.from_num(Poly((12, 22, 12, 2)), 12, 3)
    assert unreduced == block_ehrhart(ReeveT(1))
    assert (unreduced.num, unreduced.den) == (Poly((6, 11, 6, 1)), 6)
    assert EhrhartPoly(Poly((1, 1)), 1) != EhrhartPoly(Poly((1, 2)), 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        dilated.den = 2


def test_from_num_validation():
    with pytest.raises(ValueError, match="constant term"):
        EhrhartPoly.from_num(Poly((5, 1)), 6, 1)
    with pytest.raises(ValueError, match="degree"):
        EhrhartPoly.from_num(Poly((6, 1)), 6, 2)
    with pytest.raises(ValueError, match="volume"):
        EhrhartPoly.from_num(Poly((6, 1, -1)), 6, 2)
    with pytest.raises(ValueError, match="half boundary"):
        EhrhartPoly.from_num(Poly((6, -1, 0, 1)), 6, 3)


def test_expr_ehrhart():
    single = PolytopeExpr(((1, ReeveT(13)),))
    assert expr_ehrhart(single).poly == block_ehrhart(ReeveT(13)).poly
    boxy = PolytopeExpr(((1, Interval(2)), (1, Interval(3))))
    assert expr_ehrhart(boxy).poly == Poly((1, 5, 6))
    mixed = PolytopeExpr(((2, EulerianS(2, 1)), (1, ReeveT(1))))
    expected = Poly((1, 4, 4)) * Poly((1, Fraction(11, 6), 1, Fraction(1, 6)))
    got = expr_ehrhart(mixed)
    assert got.poly == expected
    assert got.dim == 5
    assert got.poly[0] == 1


def test_expr_dim_and_dilate():
    e = PolytopeExpr(((2, Interval(1)), (3, ReeveT(1))))
    assert e.dim == 4
    assert e.dilated(5).factors == ((10, Interval(1)), (15, ReeveT(1)))
    combined = e * PolytopeExpr(((1, Quad(2)),))
    assert combined.dim == 6
    with pytest.raises(ValueError):
        PolytopeExpr(())
    with pytest.raises(ValueError):
        PolytopeExpr(((0, Interval(1)),))


def test_volume_equals_normalized_volume_over_factorial():
    for s in (DeltaQ((1, 5, 6, 8, -3, -7), 20), DeltaQ((1, 1), 13)):
        h = hstar_naive(s)
        e = from_hstar(h, s.d)
        assert e.poly[s.d] == Fraction(s.n, math.factorial(s.d))


def test_sign_vector():
    assert sign_vector(block_ehrhart(ReeveT(13))) == (-1,)
    assert sign_vector(block_ehrhart(ReeveT(1))) == (1,)
    assert sign_vector(block_ehrhart(ReeveT(12))) == (0,)
    with pytest.raises(ValueError):
        sign_vector(block_ehrhart(Quad(1)))


def test_sign_vector_order_is_descending_degree():
    # 4-dim witness with c_2 < 0 < c_1 must read (-1, +1)
    e = PolytopeExpr(((1, Interval(2)), (1, ReeveT(18))))
    ehr = expr_ehrhart(e)
    assert ehr.poly[2] < 0 < ehr.poly[1]
    assert sign_vector(ehr) == (-1, 1)


def test_block_json_round_trip():
    blocks = [
        Interval(3),
        ReeveT(13),
        EulerianS(4, 2),
        Quad(7),
        StdSimplex(5),
        Delta(DeltaQ((1, -2), 9)),
    ]
    for b in blocks:
        assert block_to_json(b)["kind"] == type(b).kind
        assert block_from_json(block_to_json(b)) == b
    with pytest.raises(ValueError):
        block_from_json({"kind": "mystery"})
    with pytest.raises(KeyError):
        block_from_json({"kind": "quad"})
    assert block_from_json({"kind": "quad", "a": 7, "extra": 1}) == Quad(7)


def test_expr_json_round_trip():
    e = PolytopeExpr(((2, EulerianS(3, 4)), (1, ReeveT(13))))
    obj = expr_to_json(e)
    assert obj == {
        "factors": [
            {"r": 2, "block": {"kind": "eulerian_s", "d": 3, "m": 4}},
            {"r": 1, "block": {"kind": "reeve", "m": 13}},
        ]
    }
    assert expr_from_json(obj) == e
