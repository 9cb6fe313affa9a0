"""`queries` workload: a seeded stream of exact h*, family, Eulerian-simplex
and oracle queries on Delta(0,q), answered in one process.

Ops come in blocks of 20 in a seeded order: 8 fast-path h* + Ehrhart, 4
naive numpy-path h*, 2 naive big-int-path h*, 3 family queries, 1 S_d(m)
query and 2 oracle checks.  Within a block each kind draws its size and its
dimension from its own strata (one draw from each equal slice of the
range), so every run sees the same spread of sizes and the cost of a run
does not drift with the seed.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

BLOCK = ("fast",) * 8 + ("numpy",) * 4 + ("bigint",) * 2 + ("family",) * 3 + ("sdm",) + ("oracle",) * 2

FAST_N = 10**12
FAST_SUM_Q = (10**3, 2 * 10**5)
NUMPY_N = (10**4, 10**6)
BIGINT_N = (500, 10**4)
BIGINT_Q = (10**15, 10**18)
FAMILY_N = (5040, 27720, 55440)
FAMILY_Q_MAX = 2000
ORACLE_POINTS = 10_000  # the oracle's default guard on n*t
REFERENCE_MAX_N = 10**6  # check h* against the defining sum up to this n


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _split(rng, total: int, parts: int) -> list[int]:
    """`parts` positive integers summing to `total`."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _signed(rng, values):
    return tuple(v * rng.choice((1, -1)) for v in values)


@functools.lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(k for k in range(1, n + 1) if n % k == 0)


def _pick(lo: int, hi: int, v: float) -> int:
    """The integer in [lo, hi] at position v in [0, 1)."""
    return lo + int(v * (hi - lo + 1))


def fast_op(rng, u, v):
    d = _pick(3, 10, v)
    target = int(_log_uniform(*FAST_SUM_Q, u))
    head = _signed(rng, _split(rng, max(target // 2, d), d - 1))
    return ("fast", (head, FAST_N))


def numpy_op(rng, u, v):
    n = int(_log_uniform(*NUMPY_N, u))
    d = _pick(3, 8, v)
    big = (n + rng.randint(1, n)) * rng.choice((1, -1))
    rest = tuple(rng.randint(-n, n) for _ in range(d - 2))
    return ("numpy", ((big,) + rest, n))


def bigint_op(rng, u, v):
    n = int(_log_uniform(*BIGINT_N, u))
    d = _pick(3, 6, v)
    big = rng.randint(10**17, 10**18) * rng.choice((1, -1))
    rest = tuple(
        int(_log_uniform(*BIGINT_Q, rng.random())) * rng.choice((1, -1)) for _ in range(d - 2)
    )
    return ("bigint", ((big,) + rest, n))


def family_instance(rng) -> tuple[tuple[int, ...], int]:
    """q_head and n with every q_i (q_d included) a nonzero divisor of n."""
    n = rng.choice(FAMILY_N)
    divs = [k for k in _divisors(n) if k <= FAMILY_Q_MAX]
    while True:
        d = rng.randint(3, 7)
        head = _signed(rng, (rng.choice(divs) for _ in range(d - 1)))
        q_d = 1 - sum(head)
        if q_d and n % q_d == 0:
            return head, n


def family_op(rng, u, v):
    head, n = family_instance(rng)
    if rng.random() < 0.5:
        return ("l1_l2", (head, n))
    return ("hstar_family", (head, n, int(_log_uniform(1, 10**6, u))))


def sdm_op(rng, u, v):
    d = _pick(2, 10, v)
    m = int(_log_uniform(1, 10**6, u))
    return (rng.choice(("sdm_hstar", "sdm_ehrhart")), (d, m))


def oracle_instance(rng, u, v) -> tuple[tuple[int, ...], int]:
    d = _pick(3, 4, v)
    n = int(_log_uniform(200, ORACLE_POINTS // (d + 2), u))
    head = tuple(rng.randint(-n, n) for _ in range(d - 1))
    return head, n


def oracle_op(rng, u, v):
    return ("oracle", oracle_instance(rng, u, v))


MAKERS = {
    "fast": fast_op,
    "numpy": numpy_op,
    "bigint": bigint_op,
    "family": family_op,
    "sdm": sdm_op,
    "oracle": oracle_op,
}


def _strata(rng, k: int) -> list[float]:
    """k uniforms, one from each slice [i/k, (i+1)/k), in random order."""
    us = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(us)
    return us


def ops(seed: int):
    """The endless seeded op stream."""
    rng = random.Random(f"queries:{seed}")
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        sizes = {kind: _strata(rng, block.count(kind)) for kind in MAKERS}
        dims = {kind: _strata(rng, block.count(kind)) for kind in MAKERS}
        for kind in block:
            yield MAKERS[kind](rng, sizes[kind].pop(), dims[kind].pop())


def warmup_ops(seed: int) -> list:
    """One query of each kind at the low end of its size range, from a
    stream the timed ops do not use."""
    rng = random.Random(f"queries-warmup:{seed}")
    return [make(rng, 0.0, 0.0) for make in MAKERS.values()]


def setup(seed: int) -> None:
    for op in warmup_ops(seed):
        execute(op)


def execute(op):
    import ehrsign as e

    kind, args = op
    if kind == "fast":
        s = e.DeltaQ(*args)
        h = e.hstar(s)
        return h, e.from_hstar(h, s.d)
    if kind in ("numpy", "bigint"):
        return e.hstar(e.DeltaQ(*args))
    if kind == "l1_l2":
        return e.l1_l2(e.DeltaQ(*args))
    if kind == "hstar_family":
        head, n, m = args
        return e.hstar_family(e.DeltaQ(head, n), m)
    if kind == "sdm_hstar":
        return e.sdm_hstar(*args)
    if kind == "sdm_ehrhart":
        return e.sdm_ehrhart(*args)
    if kind == "oracle":
        s = e.DeltaQ(*args)
        ehr = e.from_hstar(e.hstar(s), s.d)
        return ehr, [e.count_points(s, t).count for t in range(s.d + 3)]
    raise ValueError(f"unknown op kind {kind!r}")


# --- checking ---------------------------------------------------------------


def reference_hstar(q_full, n: int) -> list[int]:
    """The defining sum sum_j x^(sum_i ceil(q_i j / n)), evaluated with
    q_i = a_i n + b_i (0 <= b_i < n): the exponent is A j + sum_i
    ceil(b_i j / n) with A = sum_i a_i, which fits int64 for any q."""
    import numpy as np

    d = len(q_full)
    j = np.arange(n, dtype=np.int64)
    e = (sum(q // n for q in q_full)) * j
    for q in q_full:
        b = q % n
        if b:
            e -= (-b * j) // n
    if e.min() < 0 or e.max() > d:
        raise ValueError("exponent outside [0, d]")
    return [int(c) for c in np.bincount(e, minlength=d + 1)]


def eulerian_numbers(d: int) -> list[int]:
    """Coefficients of A_d(x) (index k = power of x) by the explicit sum."""
    out = [0] * (d + 1)
    for k in range(1, d + 1):
        out[k] = sum((-1) ** j * math.comb(d + 1, j) * (k - j) ** d for j in range(k + 1))
    return out


def _padded(coeffs, length: int) -> list:
    coeffs = list(coeffs)
    return coeffs + [0] * (length - len(coeffs))


def sdm_q_full(d: int) -> tuple[int, ...]:
    """q of the Eulerian simplex S_d(m): q_i = -d!/(i! + (i-1)!), q_d = d!."""
    f = math.factorial
    head = tuple(-(f(d) // (f(i) + f(i - 1))) for i in range(1, d))
    return head + (1 - sum(head),)


def hstar_problem(coeffs, q_full, n: int) -> str | None:
    """Invariants of the h*-polynomial of Delta(0,q): degree at most d,
    constant term 1, nonnegative integer coefficients, h*(1) = n, and the
    first moment sum_k k h_k = sum_i sum_j ceil(q_i j / n), which is
    sum_i ((q_i + 1)(n - 1) - gcd(q_i, n) + 1) / 2 in closed form."""
    coeffs = list(coeffs)
    d = len(q_full)
    if len(coeffs) > d + 1:
        return f"degree {len(coeffs) - 1} exceeds d = {d}"
    if coeffs[0] != 1:
        return "constant term is not 1"
    if any(not isinstance(c, int) or c < 0 for c in coeffs):
        return "a coefficient is negative or not an integer"
    if sum(coeffs) != n:
        return f"h*(1) = {sum(coeffs)}, expected {n}"
    moment = sum(((q + 1) * (n - 1) - math.gcd(q, n) + 1) // 2 for q in q_full)
    if sum(k * c for k, c in enumerate(coeffs)) != moment:
        return "first moment sum_k k h_k differs from its closed form"
    return None


def _naive(head, n):
    import ehrsign as e

    return list(e.hstar_naive(e.DeltaQ(head, n)).poly.coeffs)


def check(op, result) -> str | None:
    """None when the answer is right; otherwise what is wrong."""
    import ehrsign as e

    kind, args = op
    if kind in ("fast", "numpy", "bigint"):
        head, n = args
        s = e.DeltaQ(head, n)
        h, ehr = result if kind == "fast" else (result, None)
        problem = hstar_problem(h.poly.coeffs, s.q_full, n)
        if problem:
            return problem
        if n <= REFERENCE_MAX_N:
            if _padded(h.poly.coeffs, s.d + 1) != reference_hstar(s.q_full, n):
                return "h* differs from the defining sum"
        if ehr is not None:
            if ehr.poly[0] != 1 or ehr.poly[s.d] != Fraction(n, math.factorial(s.d)):
                return "Ehrhart polynomial has the wrong constant term or volume"
        return None
    if kind == "l1_l2":
        head, n = args
        l1, l2 = result
        # h* of the member with n -> m*n is m*x*L1 + L2; compare m = 1, 2
        # against the naive path.
        for m in (1, 2):
            member = (l1.shift(1).scale(m) + l2).coeffs
            if _padded(member, len(head) + 2) != _padded(_naive(head, m * n), len(head) + 2):
                return f"m*x*L1 + L2 differs from naive h* at m = {m}"
        return None
    if kind == "hstar_family":
        head, n, m = args
        d = len(head) + 1
        problem = hstar_problem(result.poly.coeffs, e.DeltaQ(head, n).q_full, m * n)
        if problem:
            return problem
        # h* of the family is affine in m: h_m = h_1 + (m - 1)(h_2 - h_1).
        h1 = _padded(_naive(head, n), d + 1)
        h2 = _padded(_naive(head, 2 * n), d + 1)
        expected = [a + (m - 1) * (b - a) for a, b in zip(h1, h2)]
        if _padded(result.poly.coeffs, d + 1) != expected:
            return "family h* differs from the naive path"
        return None
    if kind == "sdm_hstar":
        d, m = args
        problem = hstar_problem(result.poly.coeffs, sdm_q_full(d), math.factorial(d) * m)
        if problem:
            return problem
        # x * h*(S_d(m)) = A_d(x) * ((m - 1) x + 1)
        a = eulerian_numbers(d)
        lhs = [0] + _padded(result.poly.coeffs, d + 1)
        a.append(0)
        rhs = [a[k] + (m - 1) * (a[k - 1] if k else 0) for k in range(d + 2)]
        if lhs != rhs:
            return "h*(S_d(m)) differs from A_d(x)((m-1)x+1)/x"
        return None
    if kind == "sdm_ehrhart":
        d, m = args
        expected = [math.comb(d, i) for i in range(d)] + [m]
        if list(result.coeffs) != expected:
            return "i(S_d(m), t) differs from m t^d + sum C(d,i) t^i"
        if e.from_hstar(e.sdm_hstar(d, m), d).poly != result:
            return "i(S_d(m), t) differs from the h* conversion"
        return None
    if kind == "oracle":
        ehr, counts = result
        s = e.DeltaQ(*args)
        if max(abs(q) for q in s.q_full) <= s.n and e.hstar_fast(s) != e.hstar_naive(s):
            return "fast and naive h* differ"
        for t, count in enumerate(counts):
            if ehr.eval(t) != count:
                return f"oracle count {count} at t = {t} differs from the closed form {ehr.eval(t)}"
        return None
    return f"unknown op kind {kind!r}"
