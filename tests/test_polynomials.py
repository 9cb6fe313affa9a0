import math
import random
import sys
from fractions import Fraction

import pytest

from ehrsign import polynomials
from ehrsign.polynomials import (
    Poly,
    all_integer,
    binom_poly,
    decimal_str,
    parse_decimal,
    poly_from_json,
    poly_to_json,
    poly_to_text,
)
from ehrsign.signpattern import construct, parse_pattern


def test_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(()).coeffs == (0,)
    assert Poly((0, 0, 0)).coeffs == (0,)
    assert Poly.zero().is_zero


def test_degree_and_getitem():
    p = Poly((1, 0, 3))
    assert p.degree == 2
    assert p[0] == 1 and p[1] == 0 and p[2] == 3
    assert p[5] == 0
    assert p[-1] == 0


def test_fraction_normalization():
    # Fraction(4, 2) should collapse to the int 2 so equality is structural
    p = Poly((Fraction(4, 2), Fraction(1, 3)))
    assert p.coeffs == (2, Fraction(1, 3))
    assert isinstance(p.coeffs[0], int)


def test_arithmetic():
    p = Poly((1, 2))
    q = Poly((3, 0, 1))
    assert (p + q).coeffs == (4, 2, 1)
    assert (q - p).coeffs == (2, -2, 1)
    assert (p * q).coeffs == (3, 6, 1, 2)
    assert (p * Poly.zero()).is_zero
    assert (-p).coeffs == (-1, -2)


def test_pow():
    assert (Poly((1, 1)) ** 3).coeffs == (1, 3, 3, 1)
    assert (Poly((1, 1)) ** 0) == Poly.one()
    with pytest.raises(ValueError):
        Poly((1, 1)) ** -1


def test_eval_horner():
    p = Poly((1, -2, 3))
    assert p.eval(0) == 1
    assert p.eval(2) == 1 - 4 + 12
    assert p.eval(Fraction(1, 2)) == Fraction(3, 4)


def test_compose_scale():
    p = Poly((1, 2, 3))
    assert p.compose_scale(1) == p
    assert p.compose_scale(2).coeffs == (1, 4, 12)
    with pytest.raises(ValueError):
        p.compose_scale(0)


def test_shift_and_monomial():
    assert Poly((1, 2)).shift(2).coeffs == (0, 0, 1, 2)
    assert Poly.monomial(3, 5).coeffs == (0, 0, 0, 5)
    with pytest.raises(ValueError):
        Poly.monomial(-1)


def test_immutability():
    p = Poly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_binom_poly_matches_comb():
    for shift in range(-3, 6):
        for d in range(0, 6):
            p = binom_poly(shift, d)
            for t in range(0, 8):
                assert p.eval(t) == math.comb(t + shift, d) if t + shift >= 0 else True
    with pytest.raises(ValueError):
        binom_poly(0, -1)


def test_binom_poly_leading():
    p = binom_poly(3, 4)
    assert p.degree == 4
    assert p[4] == Fraction(1, 24)


def test_text_format():
    assert poly_to_text(Poly((1, 0, 0, 7, 9, 3))) == "1 + 7*x^3 + 9*x^4 + 3*x^5"
    assert poly_to_text(Poly((1, -1))) == "1 - x"
    assert poly_to_text(Poly((0, 1))) == "x"
    assert poly_to_text(Poly((-2, Fraction(1, 3)))) == "-2 + 1/3*x"
    assert poly_to_text(Poly.zero()) == "0"
    assert poly_to_text(Poly((0, 5)), var="t") == "5*t"


def test_json_round_trip():
    for p in (Poly((1, 0, 12)), Poly((1, Fraction(-1, 6), 0, Fraction(13, 6)))):
        obj = poly_to_json(p, var="t")
        assert obj["var"] == "t"
        assert all(isinstance(c, str) for c in obj["coeffs"])
        assert poly_from_json(obj) == p


def test_all_integer():
    assert all_integer(Poly((1, 2, 3)))
    assert not all_integer(Poly((1, Fraction(1, 2))))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_decimal_str_ignores_the_int_str_limit():
    rng = random.Random(5)
    values = [0, 7, -7, 10**602, 10**603 - 1, 2**2000, 2**2001, -(3**40000)]
    values += [rng.getrandbits(rng.randint(1, 80000)) for _ in range(20)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)  # the smallest limit Python allows
        got = [decimal_str(x) for x in values]
        assert sys.get_int_max_str_digits() == 640
        sys.set_int_max_str_digits(0)
        assert got == [str(x) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_formatters_ignore_the_int_str_limit(monkeypatch):
    # the d = 16 witness: Fraction coefficients whose numerators run to
    # ~86,000 digits, far past the default limit of 4300
    p = construct(parse_pattern("+-+-++++++++++")).ehrhart.poly
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        got = poly_to_text(p, var="t"), poly_to_json(p, var="t")
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(0)
        # the reference: the same formatters on plain str()
        monkeypatch.setattr(polynomials, "decimal_str", str)
        expected = poly_to_text(p, var="t"), poly_to_json(p, var="t")
        assert expected[1]["coeffs"] == [str(c) for c in p.coeffs]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected
    assert max(len(c) for c in expected[1]["coeffs"]) > sys.int_info.default_max_str_digits


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_parse_decimal_inverts_decimal_str():
    rng = random.Random(7)
    values = [0, 7, -7, 10**600, 10**601, -(10**601) + 1, 2**2000, -(2**2001), 3**40000]
    values += [rng.getrandbits(rng.randint(1, 80000)) * rng.choice((1, -1)) for _ in range(20)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)  # the smallest limit Python allows
        assert [parse_decimal(decimal_str(x)) for x in values] == values
        for bad in ("1" * 700 + "x", "--" + "1" * 700, "1_" * 400, "-" * 700):
            with pytest.raises(ValueError):
                parse_decimal(bad)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_poly_json_round_trip_at_default_int_str_limit():
    # the Ehrhart polynomial of +-+-+++++++ has a 4,703-digit coefficient
    p = construct(parse_pattern("+-+-+++++++")).ehrhart.poly
    p = p + Poly((-(10**5000) - 1, Fraction(10**4400 + 1, 3 * 10**4500 + 7)))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        obj = poly_to_json(p, var="t")
        assert max(len(c) for c in obj["coeffs"]) > sys.int_info.default_max_str_digits
        assert poly_from_json(obj) == p
    finally:
        sys.set_int_max_str_digits(limit)
