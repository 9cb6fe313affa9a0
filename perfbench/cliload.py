"""`cli` workload: seeded one-shot `ehrsign` calls, one fresh interpreter
each, through the console script's entry point `ehrsign.cli:main`.

Calls come in blocks of 8 in a seeded order, one of each: hstar, family --m,
eulerian (recurrence), eulerian --method descent, sdm, ehrhart --expr,
verify and sign-construct --json.  Each kind's size range is cut into 8
strata that successive blocks visit in van der Corput order (0, 4, 2, 6, 1,
5, 3, 7), so every run of at least 8 blocks covers each kind's whole range,
its largest calls included, and the blocks past a whole cycle still spread
over the range instead of piling up at one end.  That keeps the mix of
sizes, and with it p90, the same from seed to seed.  The checks below parse the printed text or JSON and need nothing
from the package.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction

import queries
import sweep

KINDS = ("hstar", "family", "eulerian", "descent", "sdm", "ehrhart", "verify", "sign-construct")
MAX_PATTERN = 12
STRATA = 8
STRATUM_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)


def _hstar_args(rng, u):
    d = rng.randint(3, 8)
    head = tuple(rng.randint(-1000, 1000) for _ in range(d - 1))
    n = int(10 ** (3 + 9 * u))
    return head, n


def _random_expr(rng) -> dict:
    factors = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("interval", "reeve", "eulerian_s", "quad", "std_simplex"))
        if kind in ("interval", "reeve"):
            block = {"kind": kind, "m": rng.randint(1, 100)}
        elif kind == "eulerian_s":
            block = {"kind": kind, "d": rng.randint(1, 5), "m": rng.randint(1, 100)}
        elif kind == "quad":
            block = {"kind": kind, "a": rng.randint(1, 100)}
        else:
            block = {"kind": kind, "d": rng.randint(1, 5)}
        factors.append({"r": rng.randint(1, 50), "block": block})
    return {"factors": factors}


def make_op(kind: str, rng, u: float) -> tuple[str, list[str]]:
    """(kind, argv) for one call; u in [0, 1) sets its size."""
    q = lambda head: ",".join(map(str, head))  # noqa: E731
    if kind == "hstar":
        head, n = _hstar_args(rng, u)
        return kind, ["hstar", "--q", q(head), "--n", str(n)]
    if kind == "family":
        head, n = queries.family_instance(rng)
        return kind, ["family", "--q", q(head), "--n", str(n), "--m", str(rng.randint(1, 1000))]
    if kind == "eulerian":
        return kind, ["eulerian", "--d", str(2 + int(8 * u))]
    if kind == "descent":
        return kind, ["eulerian", "--d", str(2 + int(8 * u)), "--method", "descent"]
    if kind == "sdm":
        return kind, ["sdm", "--d", str(2 + int(9 * u)), "--m", str(rng.randint(1, 10**6))]
    if kind == "ehrhart":
        return kind, ["ehrhart", "--expr", json.dumps(_random_expr(rng))]
    if kind == "verify":
        # u picks the dimension (its lower or upper half) and the size.
        head, n = queries.oracle_instance(rng, (2 * u) % 1.0, u)
        return kind, ["verify", "--q", q(head), "--n", str(n)]
    if kind == "sign-construct":
        length = 1 + int(MAX_PATTERN * u)
        pattern = "".join(rng.choice("+-") for _ in range(length))
        return kind, ["sign-construct", "--json", "--pattern", pattern]
    raise ValueError(f"unknown kind {kind!r}")


def ops(seed: int):
    """The endless seeded call stream."""
    rng = random.Random(f"cli:{seed}")
    for k in itertools.count():
        block = list(KINDS)
        rng.shuffle(block)
        stratum = STRATUM_ORDER[k % STRATA]
        for kind in block:
            yield make_op(kind, rng, (stratum + rng.random()) / STRATA)


# --- checking ---------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(?:([a-z])(?:\^(\d+))?)?$")


def parse_poly_text(text: str) -> list[Fraction]:
    """Coefficients of a polynomial printed as '1 + 7*x^3 - 1/2*x^4'."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    coeffs: dict[int, Fraction] = {}
    for s, term in zip(signs, pieces[0::2]):
        m = _TERM.match(term)
        if not term or m is None or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"unparsable term {term!r}")
        c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        power = 0 if m.group(2) is None else int(m.group(3) or 1)
        if power in coeffs:
            raise ValueError(f"repeated power {power}")
        coeffs[power] = s * c
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return out


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def block_ehrhart(block: dict) -> list[Fraction]:
    """Ehrhart polynomials of the building blocks, from their closed forms."""
    kind = block["kind"]
    if kind == "interval":
        return [Fraction(1), Fraction(block["m"])]
    if kind == "reeve":
        m = block["m"]
        return [Fraction(1), Fraction(12 - m, 6), Fraction(1), Fraction(m, 6)]
    if kind == "eulerian_s":
        d = block["d"]
        return [Fraction(math.comb(d, i)) for i in range(d)] + [Fraction(block["m"])]
    if kind == "quad":
        return [Fraction(1), Fraction(2), Fraction(block["a"])]
    if kind == "std_simplex":
        p = [Fraction(1)]
        for i in range(1, block["d"] + 1):  # C(t+d, d) = prod (t + i) / i
            p = _poly_mul(p, [Fraction(1), Fraction(1, i)])
        return p
    raise ValueError(f"unknown block kind {kind!r}")


def expr_ehrhart(expr: dict) -> list[Fraction]:
    out = [Fraction(1)]
    for f in expr["factors"]:
        r = f["r"]
        out = _poly_mul(out, [c * r**i for i, c in enumerate(block_ehrhart(f["block"]))])
    return out


def witness_bits(expr: dict) -> int:
    """sweep.witness_bits on the printed JSON form of a witness."""
    total = 0
    for f in expr["factors"]:
        size = f["block"].get("a", f["block"].get("m", 0))
        total += int(f["r"]).bit_length() + int(size).bit_length()
    return total


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _hstar_problem(coeffs, q_head, n: int) -> str | None:
    if any(c.denominator != 1 for c in coeffs):
        return "a coefficient is not an integer"
    q_full = tuple(q_head) + (1 - sum(q_head),)
    return queries.hstar_problem([int(c) for c in coeffs], q_full, n)


def check(op, stdout: str) -> str | None:
    """None when the printed answer is right; otherwise what is wrong."""
    kind, argv = op
    try:
        return _check(kind, argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return f"output does not parse: {type(exc).__name__}: {exc}"


def _check(kind, argv, stdout):
    lines = stdout.strip().splitlines()
    if kind == "hstar":
        head = [int(v) for v in _arg(argv, "--q").split(",")]
        return _hstar_problem(parse_poly_text(stdout), head, int(_arg(argv, "--n")))
    if kind == "family":
        head = [int(v) for v in _arg(argv, "--q").split(",")]
        n, m = int(_arg(argv, "--n")), int(_arg(argv, "--m"))
        labels = [line.split(" = ", 1) for line in lines]
        if [lab for lab, _ in labels] != ["L1", "L2", f"hstar(m={m})"]:
            return "expected the lines L1, L2 and hstar(m)"
        l1, l2, hm = (parse_poly_text(body) for _, body in labels)
        problem = _hstar_problem(hm, head, m * n)
        if problem:
            return problem
        size = max(len(l1) + 1, len(l2), len(hm))
        expect = [Fraction(0)] * size
        for i, c in enumerate(l1):
            expect[i + 1] += m * c
        for i, c in enumerate(l2):
            expect[i] += c
        if _trim(expect) != _trim(hm):
            return "hstar(m) differs from m*x*L1 + L2"
        return None
    if kind in ("eulerian", "descent"):
        d = int(_arg(argv, "--d"))
        got = parse_poly_text(stdout)
        if _trim(got) != _trim(queries.eulerian_numbers(d)):
            return f"A_{d}(x) differs from the Eulerian numbers"
        return None
    if kind == "sdm":
        d, m = int(_arg(argv, "--d")), int(_arg(argv, "--m"))
        got = parse_poly_text(stdout)
        problem = _hstar_problem(got, queries.sdm_q_full(d)[:-1], math.factorial(d) * m)
        if problem:
            return problem
        a = queries.eulerian_numbers(d) + [0]
        expect = [a[k] + (m - 1) * (a[k - 1] if k else 0) for k in range(d + 2)]
        if _trim([0] + got) != _trim(expect):
            return "h*(S_d(m)) differs from A_d(x)((m-1)x+1)/x"
        return None
    if kind == "ehrhart":
        expect = expr_ehrhart(json.loads(_arg(argv, "--expr")))
        if _trim(parse_poly_text(stdout)) != _trim(expect):
            return "Ehrhart polynomial differs from the product of the blocks' closed forms"
        return None
    if kind == "verify":
        d = len(_arg(argv, "--q").split(",")) + 1
        if len(lines) != d + 3:
            return f"expected {d + 3} lines, got {len(lines)}"
        for t, line in enumerate(lines):
            m = re.fullmatch(r"t=(\d+): oracle=(\d+) closed-form=(\d+) (ok|MISMATCH)", line)
            if m is None or int(m.group(1)) != t:
                return f"unparsable line {line!r}"
            if m.group(2) != m.group(3) or m.group(4) != "ok":
                return f"oracle and closed form differ at t = {t}"
        return None
    if kind == "sign-construct":
        text = _arg(argv, "--pattern")
        pattern = tuple(1 if ch == "+" else -1 for ch in text)
        obj = json.loads(stdout)
        coeffs = [Fraction(c) for c in obj["ehrhart"]["coeffs"]]
        dim = len(pattern) + 2
        if obj["pattern"] != text or tuple(obj["sign_vector"]) != pattern:
            return "printed pattern or sign vector differs from the request"
        if len(coeffs) != dim + 1 or coeffs[0] != 1:
            return "printed Ehrhart polynomial has the wrong degree or constant term"
        if sweep.middle_signs(coeffs, dim) != pattern:
            return "sign vector of the printed Ehrhart polynomial differs from the pattern"
        if _trim(expr_ehrhart(obj["expr"])) != _trim(coeffs):
            return "printed Ehrhart polynomial differs from the printed witness"
        return None
    return f"unknown kind {kind!r}"
