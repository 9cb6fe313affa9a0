"""Self-tests of the benchmark: every checker rejects a deliberately wrong
result, witness size matches the published figures, and the tracer's
bookkeeping is exact.

Run with: python3 -m pytest perfbench
"""

import io
import itertools
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import common

sys.path.insert(0, str(common.SRC))

import cliload  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
from ehrsign import Poly, cli, construct  # noqa: E402
from ehrsign.delta import HStar  # noqa: E402
from ehrsign.ehrhart import EhrhartPoly  # noqa: E402
from ehrsign.signpattern import ConstructResult  # noqa: E402


def _bump(poly: Poly, i: int, by=1) -> Poly:
    coeffs = list(poly.coeffs)
    coeffs[i] += by
    return Poly(coeffs)


# --- sweep ---------------------------------------------------------------------


def test_sweep_check_accepts_real_witnesses():
    for pattern in [(1,), (-1, 1), (1, 1, -1, -1), (-1, 1, -1, 1, -1)]:
        assert sweep.check(pattern, construct(pattern)) is None


def test_sweep_check_rejects_witness_for_another_pattern():
    assert sweep.check((1, -1, 1), construct((1, 1, 1))) is not None
    assert sweep.check((1, -1), construct((1, -1, 1))) is not None


def test_sweep_check_rejects_forged_ehrhart_polynomial():
    # Right signs claimed for a witness that does not realize them.
    pattern = (-1, 1, -1)
    real = construct(pattern)
    other = construct((1, 1, 1))
    forged = ConstructResult(other.expr, real.ehrhart, real.trace)
    assert sweep.check(pattern, forged) is not None


def test_witness_bits_matches_published_maxima():
    by_length = {}
    for pattern in sweep.all_patterns(12):
        bits = sweep.witness_bits(construct(pattern).expr)
        by_length[len(pattern)] = max(by_length.get(len(pattern), 0), bits)
    assert max(v for k, v in by_length.items() if k <= 10) == 10042
    assert max(by_length.values()) == 49275


def test_sweep_pass_order_is_seeded():
    assert sweep.patterns(3, 0) == sweep.patterns(3, 0)
    assert sweep.patterns(3, 0) != sweep.patterns(4, 0)
    assert sorted(sweep.patterns(3, 0)) == sorted(sweep.all_patterns())
    assert len(sweep.all_patterns()) == 8190


# --- queries -------------------------------------------------------------------


def _one_of_each(seed=5):
    seen = {}
    for op in itertools.islice(queries.ops(seed), 200):
        seen.setdefault(op[0], op)
    return seen


def test_queries_stream_is_seeded_and_mixed():
    first = list(itertools.islice(queries.ops(9), 40))
    assert first == list(itertools.islice(queries.ops(9), 40))
    assert set(_one_of_each()) == {
        "fast", "numpy", "bigint", "l1_l2", "hstar_family", "sdm_hstar", "sdm_ehrhart", "oracle"
    }
    for op in itertools.islice(queries.ops(9), 200):
        if op[0] in ("numpy", "bigint"):
            import ehrsign

            assert tracing.naive_path(ehrsign.DeltaQ(*op[1])) == op[0]


def _tampered(kind, result):
    if kind == "fast":
        h, ehr = result
        return h, EhrhartPoly(_bump(ehr.poly, ehr.dim, Fraction(1, 2)), ehr.dim)
    if kind in ("numpy", "bigint", "hstar_family", "sdm_hstar"):
        # Move one unit of mass between coefficients: h*(1) stays the same.
        p = _bump(_bump(result.poly, 1, -1), 2, 1) if result.poly[1] else _bump(result.poly, 2, 1)
        return HStar(p, result.dim)
    if kind == "l1_l2":
        l1, l2 = result
        return _bump(l1, 0), l2
    if kind == "sdm_ehrhart":
        return _bump(result, 1)
    if kind == "oracle":
        ehr, counts = result
        return ehr, counts[:-1] + [counts[-1] + 1]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", sorted(_one_of_each()))
def test_queries_check_accepts_right_and_rejects_wrong(kind):
    op = _one_of_each()[kind]
    result = queries.execute(op)
    assert queries.check(op, result) is None
    assert queries.check(op, _tampered(kind, result)) is not None


def test_queries_check_rejects_moved_mass_on_fast_path():
    # n = 10^12 is too large for the defining sum; the closed-form first
    # moment still sees one unit moved between coefficients.
    op = _one_of_each()["fast"]
    h, ehr = queries.execute(op)
    moved = HStar(_bump(_bump(h.poly, 1, -1), 2, 1), h.dim)
    assert queries.check(op, (moved, ehr)) is not None


def test_reference_hstar_and_eulerian_numbers():
    # Golden example from the acceptance tests: q = (1,5,6,8,-3,-7), n = 20.
    assert queries.reference_hstar((1, 5, 6, 8, -3, -7, -9), 20) == [1, 0, 0, 7, 9, 3, 0, 0]
    import ehrsign

    for q_head, n in [((10**18, -(10**17) + 3), 41), ((700, -5000, 3), 600)]:
        s = ehrsign.DeltaQ(q_head, n)
        expected = list(ehrsign.hstar_naive(s).poly.coeffs)
        assert queries.reference_hstar(s.q_full, n)[: len(expected)] == expected
    assert queries.eulerian_numbers(4) == [0, 1, 11, 11, 1]


# --- cli -----------------------------------------------------------------------


def _cli_output(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _one_cli_call_of_each(seed=2):
    seen = {}
    for op in itertools.islice(cliload.ops(seed), 64):
        seen.setdefault(op[0], op)
    return seen


def _corrupt(text: str) -> str:
    """Change the last nonzero digit of the answer (for sign-construct, of
    the printed Ehrhart polynomial)."""
    end = text.find('"sign_vector"')
    for i in range((end if end >= 0 else len(text)) - 1, -1, -1):
        if text[i] in "123456789":
            return text[:i] + str(int(text[i]) - 1) + text[i + 1:]
    raise AssertionError("no digit to change")


@pytest.mark.parametrize("kind", cliload.KINDS)
def test_cli_check_accepts_right_and_rejects_wrong(kind):
    op = _one_cli_call_of_each()[kind]
    rc, out = _cli_output(op[1])
    assert rc == 0
    assert cliload.check(op, out) is None
    assert cliload.check(op, _corrupt(out)) is not None
    assert cliload.check(op, "") is not None


def test_cli_check_rejects_swapped_sign_construct_answer():
    _, out = _cli_output(["sign-construct", "--json", "--pattern", "+-+"])
    op = ("sign-construct", ["sign-construct", "--json", "--pattern", "++-"])
    assert cliload.check(op, out) is not None


def test_parse_poly_text():
    assert cliload.parse_poly_text("1 + 7*x^3 - 1/2*x^4") == [1, 0, 0, 7, Fraction(-1, 2)]
    assert cliload.parse_poly_text("-2*t^2 + t") == [0, 1, -2]
    assert cliload.parse_poly_text("x") == [0, 1]
    with pytest.raises(ValueError):
        cliload.parse_poly_text("1 + banana")


def test_cli_witness_bits_agrees_with_sweep():
    from ehrsign.ehrhart import expr_to_json

    expr = construct((-1, 1, -1, -1, 1, 1, -1)).expr
    assert cliload.witness_bits(expr_to_json(expr)) == sweep.witness_bits(expr)


# --- tracing -------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 2.0, 5.0, 0), ("c", 3.0, 4.0, 1), ("b", 6.0, 7.0, 0)]
    calls, own = tracing.self_times(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert own == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})


def test_tracer_wraps_import_sites_and_restores_them():
    import ehrsign
    from ehrsign import signpattern

    before = (signpattern.expr_ehrhart, ehrsign.construct, Poly.__mul__)
    with tracing.Tracer() as tracer:
        assert signpattern.expr_ehrhart is not before[0]
        signpattern.construct((-1,) * 13)
    assert (signpattern.expr_ehrhart, ehrsign.construct, Poly.__mul__) == before
    calls, own = tracing.self_times(tracer.spans)
    assert calls["signpattern.construct"] == 1
    assert calls["ehrhart.expr_ehrhart"] >= 2
    assert all(v >= -1e-9 for v in own.values())
    metrics = tracing.layer_metrics(calls, own, tracer.counters, {})
    assert metrics["signpattern.expansions_per_pattern"][0] >= 2
    assert sum(metrics[f"signpattern.case.{c}.count"][0] for c in tracing.CASES) == 1


def test_numpy_import_time_is_read_from_importtime_output():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1862 |     151777 |       numpy\n"
        "import time:      5189 |     226132 | ehrsign.cli\n"
    )
    assert run.numpy_import_s(text) == pytest.approx(0.151777)
    assert run.numpy_import_s("") == 0.0


# --- machine-speed reference ---------------------------------------------------


def test_meter_scales_an_interval_by_the_probes_around_it():
    meter = speed.Meter()
    r, w = meter.reference_probe_s, speed.WINDOW_S
    meter.times = [1.0, 1.0 + w / 2, 1.0 + w, 10.0, 10.0 + w / 2, 10.0 + w]
    meter.seconds = [0.002, 0.0005, 0.002, 0.001, 0.001, 0.001]
    # At half the reference speed an interval counts half its wall time,
    # and the lone fast probe among slow ones is outvoted.
    assert meter.reference(1.1, 1.2) == pytest.approx(0.1 * r / 0.002)
    assert meter.factor(10.1, 10.2) == pytest.approx(r / 0.001)
    # With no probe within the window, the nearest before and after count.
    assert meter.factor(5.0, 5.1) == pytest.approx(r / 0.0015)
    assert meter.factor(20.0, 21.0) == pytest.approx(r / 0.001)


def test_meter_probes_only_when_due():
    for kind in (speed.COMPUTE, speed.SPAWN):
        meter = speed.Meter(kind)
        meter.tick()
        meter.tick()
        assert len(meter.seconds) == 1 and meter.seconds[0] > 0
