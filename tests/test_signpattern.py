import dataclasses
import hashlib
import itertools
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from ehrsign import cli, signpattern
from ehrsign.ehrhart import (
    EulerianS,
    PolytopeExpr,
    ReeveT,
    expr_ehrhart,
    expr_to_json,
    sign_vector,
)
from ehrsign.signpattern import (
    SearchExhausted,
    WeightTable,
    construct,
    construct_case6,
    decompose_pattern,
    format_pattern,
    generate_base_catalog,
    greedy_params,
    instantiate,
    parse_pattern,
    predict_signs,
    target_pattern,
    validate_pattern,
    verify_expr,
)


def all_patterns(length):
    return itertools.product((1, -1), repeat=length)


def compositions(total, min_part=2):
    """All ordered lists of parts >= min_part summing to total."""
    if total == 0:
        yield []
        return
    for first in range(min_part, total + 1):
        for rest in compositions(total - first, min_part):
            yield [first] + rest


def test_parse_and_format():
    assert parse_pattern("+-+") == (1, -1, 1)
    assert format_pattern((1, -1, 1)) == "+-+"
    for bad in ("", "+0-", "pm"):
        with pytest.raises(ValueError):
            parse_pattern(bad)
    with pytest.raises(ValueError):
        validate_pattern((1, 0))


def test_decompose_pattern():
    assert decompose_pattern((-1, 1, -1, -1)) == [3]
    assert decompose_pattern((-1, 1, -1, 1, -1)) == [2, 2]
    assert decompose_pattern((-1, 1, -1, -1, 1, -1)) == [3, 2]
    assert decompose_pattern((1, 1, -1)) is None  # must start with -1
    assert decompose_pattern((-1, 1, 1, -1)) is None  # block needs a -1 run
    assert decompose_pattern((-1, 1, -1, 1)) is None  # trailing bare +1
    assert decompose_pattern((-1,)) is None


def test_greedy_params_single_block():
    p = greedy_params([3])
    assert p.epsilon == Fraction(1, 2)
    assert p.alpha == (Fraction(1, 6), Fraction(1, 2))
    assert p.beta == (Fraction(5, 6), Fraction(1))
    assert p.L == 6


def test_greedy_params_two_blocks():
    p = greedy_params([2, 2])
    assert p.epsilon == Fraction(1, 4)
    assert p.alpha == (Fraction(1, 12), Fraction(1, 4), Fraction(3, 4))
    assert p.beta == (Fraction(11, 12), Fraction(1), Fraction(1, 2))
    assert p.L == 12


def test_greedy_params_validation():
    with pytest.raises(ValueError):
        greedy_params([])
    with pytest.raises(ValueError):
        greedy_params([1, 3])


def test_greedy_matches_brute_force():
    for total in range(2, 10):
        for d_list in compositions(total):
            table = WeightTable(d_list)
            for x in range(table.D + 1):
                assert table.W(x) == table.brute_force_W(x), (d_list, x)


def test_weight_monotone_and_bounded():
    # W grows strictly with x and completing everything costs D*(1+eps)
    # minus the epsilon overhead of the alpha side
    table = WeightTable([3, 2])
    values = [table.W(x) for x in range(table.D + 1)]
    assert values[0] == 0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_predict_signs_matches_target():
    for total in range(2, 11):
        for d_list in compositions(total):
            assert predict_signs(d_list) == target_pattern(d_list), d_list


def test_instantiate_exact_powers():
    p = greedy_params([3])
    expr = instantiate([3], p, 2)
    assert expr.factors == ((8, EulerianS(3, 64)), (2, ReeveT(32)))
    with pytest.raises(ValueError):
        instantiate([3], p, 1)


def test_construct_case6_verified():
    for d_list in ([3], [2, 2], [2, 3]):
        expr, ehr, b = construct_case6(d_list)
        assert b >= 2
        assert sign_vector(ehr) == target_pattern(d_list)
        assert verify_expr(expr, target_pattern(d_list))


def test_verify_expr():
    reeve13 = PolytopeExpr(((1, ReeveT(13)),))
    assert verify_expr(reeve13, (-1,))
    assert not verify_expr(reeve13, (1,))
    with pytest.raises(ValueError):
        verify_expr(reeve13, (1, 1))  # dimension mismatch


def test_construct_base_patterns():
    res = construct((-1,))
    assert res.trace == ("catalog-d3",)
    assert sign_vector(res.ehrhart) == (-1,)
    res4 = construct((1, -1))
    assert res4.trace[0].startswith("catalog")


def test_construct_all_small_patterns():
    for length in range(1, 6):
        for pattern in all_patterns(length):
            res = construct(pattern)
            assert sign_vector(res.ehrhart) == pattern, pattern
            assert verify_expr(res.expr, pattern)
            assert res.ehrhart.dim == length + 2


def test_construct_case_routing():
    assert construct((1, -1, -1)).trace[0].startswith("case1")
    assert construct((-1, -1, 1)).trace[0].startswith("case2")
    assert construct((-1, -1, 1, -1, -1)).trace[0].startswith("case3")
    assert construct((-1, 1, -1)).trace[0].startswith("case6")
    assert construct((-1, 1, 1, -1, -1)).trace[0].startswith("case5")
    assert construct((-1, 1, -1, -1)).trace[0].startswith("case6")


def test_cases_5_and_6_cover_what_cases_1_to_3_leave():
    # A pattern that passes Cases 1-3 starts and ends with - and has + second;
    # then it contains ++ (Case 5) or has Case 6's shape -(+-^a1)(+-^a2)...
    reached = 0
    for length in range(3, 15):  # lengths 1 and 2 are catalog entries
        for pattern in all_patterns(length):
            if pattern[0] != -1 or pattern[1] != 1 or pattern[-1] != -1:
                continue
            reached += 1
            if any(pattern[i] == pattern[i + 1] == 1 for i in range(length - 1)):
                continue
            d_list = decompose_pattern(pattern)
            assert d_list is not None, format_pattern(pattern)
            assert target_pattern(d_list) == pattern
    assert reached == 2**12 - 1  # every - + ... - of lengths 3..14


@pytest.fixture
def fresh_memo():
    """Run a test against an empty construct memo and leave none behind."""
    signpattern._construct.cache_clear()
    yield
    signpattern._construct.cache_clear()


def test_construct_expands_only_the_catalog_lookup(fresh_memo, monkeypatch):
    calls = []
    expand = signpattern.expr_ehrhart

    def counting(expr):
        calls.append(expr)
        return expand(expr)

    monkeypatch.setattr(signpattern, "expr_ehrhart", counting)
    res = construct((1,) * 6)
    assert [t.partition("[")[0] for t in res.trace] == ["case1"] * 4 + ["catalog-d4"]
    assert len(calls) == 1  # the Case-1 peels multiply closed forms


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_construct_at_default_int_str_limit(fresh_memo):
    # d = 17: a Case-1 dilation here has over 8,000 digits, past the default
    # limit of 4300; the trace must read as plain str() of each parameter
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        res = construct(parse_pattern("+-+-+++++++++++"))
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(0)
        rebuilt = []
        for step in res.trace:
            m = re.fullmatch(r"(case[1-5][.12]*)\[(.*)\]", step)
            if m is None:
                rebuilt.append(step)
                continue
            params = [kv.split("=") for kv in m.group(2).split(",")]
            body = ",".join(f"{k}={int(v)}" for k, v in params)
            rebuilt.append(f"{m.group(1)}[{body}]")
    finally:
        sys.set_int_max_str_digits(limit)
    assert tuple(rebuilt) == res.trace
    assert max(len(step) for step in res.trace) > sys.int_info.default_max_str_digits
    assert res.trace[0].startswith("case1[r=") and res.trace[-1].startswith("case6[")


def test_construct_polynomial_matches_full_expansion():
    for length in range(1, 9):
        for pattern in all_patterns(length):
            res = construct(pattern)
            assert res.ehrhart == expr_ehrhart(res.expr), pattern


def test_construct_case5_orientations(fresh_memo):
    res = construct(parse_pattern("-++-"))
    assert res.trace == ("case5.1[d1=3,d2=3,r=4]", "catalog-d3", "catalog-d3")
    assert res.expr == PolytopeExpr(((4, ReeveT(13)), (1, ReeveT(13))))
    res = construct(parse_pattern("-+-++-"))
    assert res.trace == (
        "case5.2[d1=5,d2=3,r=28369594]",
        "case6[d_list=[2],b=3]",
        "catalog-d3",
    )
    assert res.expr == PolytopeExpr(
        ((27, EulerianS(2, 729)), (3, ReeveT(243)), (28369594, ReeveT(13)))
    )


def test_wrong_catalog_witness_exhausts_search(fresh_memo, monkeypatch, capsys):
    # ReeveT(1) realizes "+", not "-"
    monkeypatch.setitem(signpattern._CATALOG, "-", PolytopeExpr(((1, ReeveT(1)),)))
    with pytest.raises(SearchExhausted) as info:
        construct((-1,))
    assert info.value.case == "catalog-d3"
    assert info.value.last_sign_vector == (1,)
    assert cli.main(["sign-construct", "--pattern", "-"]) == cli.EXIT_EXHAUSTED
    err = capsys.readouterr().err
    assert "search exhausted" in err and "Traceback" not in err


def test_construct_random_large_patterns():
    rng = random.Random(99)
    for length in (8, 9, 10):
        for _ in range(5):
            pattern = tuple(rng.choice((1, -1)) for _ in range(length))
            res = construct(pattern)
            assert sign_vector(res.ehrhart) == pattern, pattern


def test_construct_rejects_bad_input():
    with pytest.raises(ValueError):
        construct(())
    with pytest.raises(ValueError):
        construct((1, 0, -1))


def test_search_exhausted_carries_context():
    err = SearchExhausted("case6", (-1, 1, -1), (1, 1, 1))
    assert err.case == "case6"
    assert "-+-" in str(err)


def test_generate_base_catalog_matches_inline_table():
    assert generate_base_catalog() == signpattern._CATALOG


def test_catalog_witnesses_verify():
    for pat_text, expr in signpattern._CATALOG.items():
        assert verify_expr(expr, parse_pattern(pat_text)), pat_text


def test_case6_bases_stay_far_below_the_cap():
    # the measurement behind a fixed DEFAULT_MAX_BASE and no fallback search:
    # 986 block lists, none needs b > 5 today
    bases = [
        construct_case6(d_list)[2]
        for total in range(2, 16)
        for d_list in compositions(total)
    ]
    assert len(bases) == 986
    assert max(bases) <= 8 < signpattern.DEFAULT_MAX_BASE


def test_expr_json_emitted_by_construct_round_trips():
    from ehrsign.ehrhart import expr_from_json

    res = construct((-1, 1, -1, -1))
    obj = expr_to_json(res.expr)
    rebuilt = expr_from_json(json.loads(json.dumps(obj)))
    assert expr_ehrhart(rebuilt).poly == res.ehrhart.poly


def _feed(h, x):
    """Hash ints (signed bytes), strings and tuples of them, each tagged and
    length-prefixed, so no two values share an encoding."""
    if type(x) is int:
        b = x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True)
        h.update(b"i%d:" % len(b) + b)
    elif type(x) is str:
        b = x.encode()
        h.update(b"s%d:" % len(b) + b)
    else:
        h.update(b"t%d:" % len(x))
        for y in x:
            _feed(h, y)


def test_construct_output_is_pinned(fresh_memo):
    # every witness of lengths 1..10: its factors, its Ehrhart numerator and
    # denominator, and its trace.  The literal was computed before the integer
    # fast path through Poly, EhrhartPoly and the constructor's bounds, which
    # must not change any output.
    h = hashlib.sha256()
    for length in range(1, 11):
        for pattern in all_patterns(length):
            res = construct(pattern)
            factors = tuple(
                (r, type(block).__name__, dataclasses.astuple(block))
                for r, block in res.expr.factors
            )
            _feed(h, (pattern, factors, res.ehrhart.num.coeffs, res.ehrhart.den, res.trace))
    assert h.hexdigest() == "21f6c2f34bf79140d01b64d13a4a855301632e4c8e3e0fdea58d8bdfc2bc6f10"
