"""End-to-end CLI tests: run main() in-process and assert on stdout plus
the exit-code contract (0 ok, 1 mismatch, 2 exhausted, 64 usage, 65
precondition)."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrsign
from ehrsign import cli
from ehrsign.delta import DeltaQ, hstar
from ehrsign.oracle import DilationCount
from ehrsign.polynomials import poly_from_json
from ehrsign.signpattern import construct, parse_pattern


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hstar_text(capsys):
    code, out, _ = run(capsys, "hstar", "--q", "1,5,6,8,-3,-7", "--n", "20")
    assert code == 0
    assert out.strip() == "1 + 7*x^3 + 9*x^4 + 3*x^5"


def test_hstar_json_round_trip(capsys):
    code, out, _ = run(capsys, "hstar", "--q", "1,1", "--n", "13", "--json")
    assert code == 0
    obj = json.loads(out)
    assert poly_from_json(obj).coeffs == (1, 0, 12)


def test_hstar_trivial(capsys):
    code, out, _ = run(capsys, "hstar", "--q", "0,0", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_hstar_methods_agree(capsys):
    args = ("hstar", "--q", "-3,-2", "--n", "6")
    outputs = set()
    for method in ("auto", "fast", "naive"):
        code, out, _ = run(capsys, *args, "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_usage_errors(capsys):
    assert run(capsys, "hstar", "--q", "nope", "--n", "20")[0] == 64
    assert run(capsys, "hstar", "--q", "1,1", "--n", "0")[0] == 64
    assert run(capsys, "hstar", "--q", "1,1")[0] == 64
    assert run(capsys, "definitely-not-a-command")[0] == 64


@pytest.mark.parametrize(
    "argv",
    [
        ("eulerian", "--d", "0"),
        ("sdm", "--d", "0", "--m", "1"),
        ("sdm", "--d", "2", "--m", "0"),
        ("family", "--q", "1,-2", "--n", "2", "--m", "0"),
        ("eulerian", "--d", "12", "--method", "descent"),
        ("verify", "--q", "1,1", "--n", "13", "--tmax", "-3"),
        # argument errors of the option parser
        ("hstar", "--q", "1,1", "--n", "x"),
        ("hstar", "--q", "1,1", "--n", "5", "--method", "bogus"),
        ("hstar", "--q", "1,1", "--n", "5", "--bogus", "1"),
        ("hstar", "--q", "1,1", "--n", "5", "stray"),
        ("hstar", "--q", "1,1", "--n", "5", "--json=yes"),
        ("definitely-not-a-command",),
        ("--bogus",),
        ("hstar", "--n", "5"),
        (),
        ("hstar", "--q", "1,1", "--n"),
        ("sign-construct", "--pattern", "+", "--max-base", "5"),
        # a JSON number past float range reads as infinity
        ("ehrhart", "--expr", '{"factors": [{"r": 1e400, "block": {}}]}'),
        # --expr numbers must be JSON integers, never truncated or parsed
        ("ehrhart", "--expr", '{"factors": [{"r": 1.5, "block": {"kind": "interval", "m": 2}}]}'),
        ("ehrhart", "--expr", '{"factors": [{"r": 1, "block": {"kind": "interval", "m": 2.9}}]}'),
        ("ehrhart", "--expr", '{"factors": [{"r": true, "block": {"kind": "reeve", "m": 2}}]}'),
        ("ehrhart", "--expr", '{"factors": [{"r": 1, "block": {"kind": "reeve", "m": "13"}}]}'),
        ("ehrhart", "--expr", '{"factors": [{"r": 1, "block": {"kind": "delta", "q": [1, 1], "n": 13.2}}]}'),
    ],
)
def test_domain_errors_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert err.startswith("usage error:")
    assert "Traceback" not in err and out == ""


_BLOCKS = st.one_of(
    st.builds(lambda m: {"kind": "interval", "m": m}, st.integers(-1, 5)),
    st.builds(lambda m: {"kind": "reeve", "m": m}, st.integers(-1, 20)),
    st.builds(
        lambda d, m: {"kind": "eulerian_s", "d": d, "m": m}, st.integers(0, 5), st.integers(0, 5)
    ),
    st.builds(lambda a: {"kind": "quad", "a": a}, st.integers(-1, 5)),
    st.builds(lambda d: {"kind": "std_simplex", "d": d}, st.integers(0, 5)),
    st.builds(
        lambda q, n: {"kind": "delta", "q": q, "n": n},
        st.lists(st.integers(-9, 9), max_size=3),
        st.integers(0, 12),
    ),
    st.just({"kind": "bogus"}),
)


def _mostly(valid, invalid):
    """valid nine times in ten, invalid otherwise."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 9 else valid)


def _join(q):
    return ",".join(map(str, q))


# option -> its values; sizes stay small, so that every call is quick
_VALUES = {
    "q": _mostly(
        st.lists(st.integers(-30, 30), min_size=1, max_size=4).map(_join)
        # small divisors of 12 and 60: the family's q_i | n often holds
        | st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=3).map(_join),
        st.sampled_from(["", "1,,2", "x", "1.5"]),
    ),
    "n": _mostly(
        st.integers(1, 60).map(str) | st.sampled_from(["12", "60"]),
        st.sampled_from(["0", "-1", "x"]),
    ),
    "m": _mostly(st.integers(1, 40).map(str), st.sampled_from(["0", "-1"])),
    "d": _mostly(st.integers(1, 9).map(str), st.sampled_from(["0", "-1", "12"])),
    "tmax": _mostly(st.integers(0, 3).map(str), st.just("-1")),
    "pattern": _mostly(st.text("+-", min_size=1, max_size=8), st.text("+-0", max_size=3)),
    "expr": _mostly(
        st.lists(st.fixed_dictionaries({"r": st.integers(0, 4), "block": _BLOCKS}), max_size=3).map(
            lambda factors: json.dumps({"factors": factors})
        ),
        st.sampled_from(
            ["{not json", "[]", "{}", '{"factors": 1}', '{"factors": [{"r": 1e400, "block": {}}]}']
        ),
    ),
}


@st.composite
def cli_calls(draw):
    """An argv for one of the commands, from its option table: each option
    present or not (a required one mostly present), a choice sometimes out
    of range, and now and then a stray token."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [name]
    for dest, opt in cli.COMMANDS[name][1].items():
        if not (draw(st.integers(0, 9)) < 9 if opt.required else draw(st.booleans())):
            continue
        argv.append("--" + dest.replace("_", "-"))
        if opt.choices:
            argv.append(draw(_mostly(st.sampled_from(opt.choices), st.just("bogus"))))
        elif opt.type is not None:
            argv.append(draw(_VALUES[dest]))
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(["--bogus", "stray", "--help", "--json=1"])))
    return argv


@given(cli_calls())
@settings(max_examples=300, deadline=None)
def test_every_call_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 64, 65), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_oracle_guard_is_precondition_error(capsys):
    # t = 0 counts one slice; t = 1 would count n*t = 100001 > MAX_SLICES
    code, out, err = run(capsys, "verify", "--q", "1,1", "--n", "100001")
    assert code == 65
    assert out == "t=0: oracle=1 closed-form=1 ok\n"
    assert err == "precondition error: n*t = 100001 exceeds the oracle guard 100000\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("hstar", "--q", "-3,-2", "--n", "6"), "1 + 4*x + x^2"),
        (("hstar", "--q=-3,-2", "--n=6"), "1 + 4*x + x^2"),
        (("hstar", "--n", "6", "--q", "-3,-2", "--method", "naive"), "1 + 4*x + x^2"),
        (("sign-construct", "--pattern", "--+-"), "sign vector = --+-"),
        (("sign-construct", "--pattern", "-"), "sign vector = -"),
    ],
)
def test_values_may_start_with_a_dash(capsys, argv, expected):
    # a value option takes the next token verbatim, whatever it starts with
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert expected in out.splitlines()


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("--help",), "sign-construct"),
        (("hstar", "--help"), "--method [auto|fast|naive]"),
        (("hstar", "--n", "x", "--help"), "--n INTEGER"),
        (("verify", "--help"), "--tmax INTEGER"),
    ],
)
def test_help_exits_zero(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: ehrsign") and shown in out


def test_exports_resolve_to_their_defining_modules():
    assert len(ehrsign.__all__) == len(set(ehrsign.__all__)) == 54
    for name in ehrsign.__all__:
        obj = getattr(ehrsign, name)
        assert obj.__module__.startswith("ehrsign.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(ehrsign.__all__) <= set(dir(ehrsign))
    assert ehrsign.signpattern is sys.modules["ehrsign.signpattern"]
    with pytest.raises(AttributeError):
        ehrsign.no_such_name
    # here every submodule is loaded already; a fresh interpreter imports one on
    # the attribute read
    proc = run_fresh(
        "import sys, ehrsign\n"
        "assert 'ehrsign.oracle' not in sys.modules\n"
        "assert ehrsign.oracle is sys.modules['ehrsign.oracle']"
    )
    assert proc.returncode == 0, proc.stderr


def test_fast_method_past_the_old_precondition(capsys):
    # |q_i| > n: the fast path reduces q mod n and answers like the naive one
    argv = ("hstar", "--q", "900,900", "--n", "5", "--method")
    code, fast, err = run(capsys, *argv, "fast")
    assert (code, err) == (0, "")
    assert (0, fast, "") == run(capsys, *argv, "naive")


def test_family(capsys):
    code, out, _ = run(capsys, "family", "--q", "-3,-2", "--n", "6", "--m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L1 = 1 + 4*x + x^2"
    assert lines[1] == "L2 = 1 + 3*x - 3*x^2 - x^3"
    assert lines[2] == "hstar(m=2) = 1 + 5*x + 5*x^2 + x^3"


def test_family_json(capsys):
    argv = ("family", "--q", "-3,-2", "--n", "6", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    assert poly_from_json(obj["L1"]).coeffs == (1, 4, 1)
    assert "hstar_m" not in obj
    code, out, _ = run(capsys, *argv, "--m", "2")
    assert code == 0
    obj = json.loads(out)
    assert poly_from_json(obj["L1"]).coeffs == (1, 4, 1)
    # the m = 2 member is Delta(0, (-3, -2)) with n = 12
    h_m = poly_from_json(obj["hstar_m"])
    assert h_m.coeffs == (1, 5, 5, 1)
    assert h_m == hstar(DeltaQ((-3, -2), 12)).poly


def test_family_divisibility_exit_code(capsys):
    assert run(capsys, "family", "--q", "3,1", "--n", "10")[0] == 65


def test_eulerian(capsys):
    code, out, _ = run(capsys, "eulerian", "--d", "3")
    assert code == 0
    assert out.strip() == "x + 4*x^2 + x^3"
    code2, out2, _ = run(capsys, "eulerian", "--d", "3", "--method", "descent")
    assert code2 == 0
    assert out2 == out


def test_sdm(capsys):
    code, out, _ = run(capsys, "sdm", "--d", "3", "--m", "5", "--what", "ehrhart")
    assert code == 0
    assert out.strip() == "1 + 3*t + 3*t^2 + 5*t^3"
    code, out, _ = run(capsys, "sdm", "--d", "3", "--m", "1", "--what", "vertices")
    assert code == 0
    assert out.strip().splitlines()[-1] == "-3 -2 6"
    code, out, _ = run(capsys, "sdm", "--d", "2", "--m", "2", "--what", "hstar")
    assert code == 0
    assert out.strip() == "1 + 2*x + x^2"


def test_ehrhart_from_q(capsys):
    code, out, _ = run(capsys, "ehrhart", "--q", "1,1", "--n", "13")
    assert code == 0
    assert out.strip() == "1 - 1/6*t + t^2 + 13/6*t^3"


def test_ehrhart_from_expr(capsys):
    expr = json.dumps(
        {"factors": [{"r": 1, "block": {"kind": "interval", "m": 2}},
                     {"r": 1, "block": {"kind": "interval", "m": 3}}]}
    )
    code, out, _ = run(capsys, "ehrhart", "--expr", expr)
    assert code == 0
    assert out.strip() == "1 + 5*t + 6*t^2"
    assert run(capsys, "ehrhart", "--expr", "{not json")[0] == 64
    assert run(capsys, "ehrhart")[0] == 64
    assert run(capsys, "ehrhart", "--expr", expr, "--q", "1,1", "--n", "3")[0] == 64


def test_sign_construct(capsys):
    code, out, _ = run(capsys, "sign-construct", "--pattern", "-")
    assert code == 0
    assert "reeve" in out and '"m": 13' in out
    assert "sign vector = -" in out


def test_sign_construct_json(capsys):
    code, out, _ = run(capsys, "sign-construct", "--pattern", "-+--", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["sign_vector"] == [-1, 1, -1, -1]
    assert obj["trace"][0].startswith("case6")
    # the emitted expr must reproduce the emitted Ehrhart polynomial
    from ehrsign.ehrhart import expr_ehrhart, expr_from_json

    assert expr_ehrhart(expr_from_json(obj["expr"])).poly == poly_from_json(obj["ehrhart"])


def test_sign_construct_prints_big_witness(capsys):
    pattern = "+-+-+++++++"
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "sign-construct", "--json", "--pattern", pattern)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    ehrhart = json.loads(out)["ehrhart"]
    assert max(len(c) for c in ehrhart["coeffs"]) > limit  # past the default limit
    sys.set_int_max_str_digits(0)
    try:
        coeffs = poly_from_json(ehrhart).coeffs
        expected = construct(parse_pattern(pattern)).ehrhart.poly.coeffs
    finally:
        sys.set_int_max_str_digits(limit)
    assert coeffs == expected


def test_sign_construct_bad_pattern(capsys):
    assert run(capsys, "sign-construct", "--pattern", "+0-")[0] == 64


def test_sign_construct_exhaustion_exit_code(capsys, monkeypatch):
    from ehrsign.signpattern import SearchExhausted

    def boom(pattern):
        raise SearchExhausted("case6", (1,))

    monkeypatch.setattr("ehrsign.signpattern.construct", boom)
    code, _, err = run(capsys, "sign-construct", "--pattern", "+")
    assert code == 2
    assert "exhausted" in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--q", "1,1", "--n", "13")
    assert code == 0
    assert "MISMATCH" not in out
    assert out.count("ok") == 6  # t = 0..d+2


def test_verify_tmax(capsys):
    code, out, _ = run(capsys, "verify", "--q", "-1", "--n", "2", "--tmax", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    def wrong_counts(s, t, **kwargs):
        return DilationCount(t, 10**6 + t, 0)

    monkeypatch.setattr("ehrsign.oracle.count_points", wrong_counts)
    code, out, _ = run(capsys, "verify", "--q", "1,1", "--n", "2")
    assert code == 1
    assert "MISMATCH" in out


def run_fresh(code: str) -> subprocess.CompletedProcess:
    # the child imports the same ehrsign tree as this process
    src = str(Path(ehrsign.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


# Run in a fresh interpreter: other tests in this process have imported numpy.
# The fast-path calls have sum |q_i| near 10^4 (q_d included), and the
# direct ones sit just under the cold cuts: all stay on the big-int loop.
NUMPY_STAYS_UNLOADED = """
import sys
import ehrsign
from ehrsign import cli
for argv in (
    ["sign-construct", "--json", "--pattern", "+-+-"],
    ["hstar", "--q", "1,-2", "--n", "9"],
    ["hstar", "--q", "4000,-3000,-2000", "--n", "1000000000000"],
    ["family", "--q", "-3,-2", "--n", "6", "--m", "2"],
    ["family", "--q", "-5000,5000", "--n", "10000", "--m", "2"],
    ["eulerian", "--d", "7", "--method", "descent"],
    ["eulerian", "--d", "8", "--method", "descent"],
    ["verify", "--q", "1000,1000,1000", "--n", "1000"],
):
    assert cli.main(argv) == 0, argv
from ehrsign.delta import _NAIVE_CUT_COLD, _NUMPY_CUT_COLD, DeltaQ, hstar_fast, hstar_naive
from ehrsign.eulerian import eulerian_descent
hstar_fast(DeltaQ((1 - _NUMPY_CUT_COLD // 2,), 10**12))
hstar_naive(DeltaQ((3, -2, 5), _NAIVE_CUT_COLD - 1))
assert "numpy" not in sys.modules
{summation}
assert "numpy" in sys.modules
"""


@pytest.mark.parametrize(
    "summation",
    [
        pytest.param(
            "hstar_naive(DeltaQ((3, -2, 5), _NAIVE_CUT_COLD))", id="hstar_naive_at_cold_cut"
        ),
        "eulerian_descent(9)",
        "hstar_fast(DeltaQ((-(_NUMPY_CUT_COLD // 2),), 10**12))",
    ],
)
def test_numpy_is_loaded_only_by_the_guarded_summations(summation):
    proc = run_fresh(NUMPY_STAYS_UNLOADED.format(summation=summation))
    assert proc.returncode == 0, proc.stderr


# What a one-shot call leaves in sys.modules, in a fresh interpreter.
IMPORT_FOOTPRINT = """
import sys
import ehrsign
assert not [m for m in sys.modules if m.startswith("ehrsign.")], sorted(sys.modules)
from ehrsign import cli
loaded = {{m for m in sys.modules if m == "click" or m.startswith("ehrsign.")}}
assert loaded == {{"ehrsign.cli"}}, loaded
assert cli.main({argv!r}) == 0
loaded = {{m for m in sys.modules if m.startswith("ehrsign.")}}
assert not loaded & {absent!r}, loaded
"""


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["hstar", "--q", "1,-2", "--n", "9"],
            {"ehrsign.signpattern", "ehrsign.oracle", "ehrsign.ehrhart"},
        ),
        (["verify", "--q", "1,1", "--n", "13"], {"ehrsign.signpattern"}),
    ],
)
def test_a_call_imports_only_what_its_command_runs(argv, absent):
    proc = run_fresh(IMPORT_FOOTPRINT.format(argv=argv, absent=absent))
    assert proc.returncode == 0, proc.stderr
