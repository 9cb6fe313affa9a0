"""Sign-pattern realization: build a lattice polytope whose middle Ehrhart
coefficients carry any prescribed +/- pattern.

The hard shape (leading -1 followed by blocks of +1, -1, ..., -1) is served
by a product of dilated Eulerian simplices and a dilated Reeve tetrahedron,
with exponents synthesized greedily from exact rational parameters; the
remaining shapes reduce recursively: products with an interval or the Reeve
tetrahedron, or a split into two smaller witnesses.  Each recursive step
computes a proven bound for its parameter and certifies the witness by the
exact sign vector of the product of its sub-witness's Ehrhart polynomial
(dilated) and the new block's closed form, i(rP x B, t) = i(P, rt) * i(B, t).
Those polynomials are integer numerators over one denominator (EhrhartPoly),
so every threshold and sign check is integer arithmetic: two coefficients of
one polynomial share its denominator.  Only the hard shape searches: over
the base b = 2..DEFAULT_MAX_BASE.  The recursion bottoms out in six d = 3/4
witnesses, an inline table that generate_base_catalog re-derives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ehrhart import (
    Block,
    EhrhartPoly,
    Interval,
    PolytopeExpr,
    ReeveT,
    block_ehrhart,
    ehr_dilate,
    ehr_product,
    expr_ehrhart,
    sign_vector,
    _sgn,
)
from .eulerian import EulerianS
from .polynomials import Poly, decimal_str

# Bounds the Case-6 base search, far above what it needs: every block list
# with block sum <= 20 certifies at b <= 10, those of the patterns of length
# <= 14 at b <= 5.
DEFAULT_MAX_BASE = 64

Pattern = tuple[int, ...]


class SearchExhausted(RuntimeError):
    """No certified witness: a step's exact check failed or the Case-6 search
    ran out of bases; carries the failing context."""

    def __init__(self, case: str, pattern: Pattern, last_sign_vector=None):
        self.case = case
        self.pattern = pattern
        self.last_sign_vector = last_sign_vector
        super().__init__(
            f"search exhausted in {case} for pattern {format_pattern(pattern)}"
            + (f" (last sign vector {last_sign_vector})" if last_sign_vector else "")
        )


def parse_pattern(text: str) -> Pattern:
    out = []
    for ch in text:
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValueError(f"invalid pattern character {ch!r} (use only '+'/'-')")
    if not out:
        raise ValueError("pattern must be nonempty (defined only for d >= 3)")
    return tuple(out)


def format_pattern(p: Pattern) -> str:
    return "".join("+" if s > 0 else "-" for s in p)


def validate_pattern(p) -> Pattern:
    p = tuple(p)
    if not p or any(s not in (1, -1) for s in p):
        raise ValueError("pattern must be a nonempty tuple over {+1, -1}")
    return p


def decompose_pattern(p: Pattern) -> list[int] | None:
    """Match (-1, [+1, -1^{d_1-1}], ..., [+1, -1^{d_k-1}]) with d_i >= 2.

    Returns the block lengths d_1..d_k, or None if the shape does not match.
    """
    if len(p) < 3 or p[0] != -1:
        return None
    d_list = []
    i = 1
    while i < len(p):
        if p[i] != 1:
            return None
        j = i + 1
        minus = 0
        while j < len(p) and p[j] == -1:
            minus += 1
            j += 1
        if minus < 1:
            return None
        d_list.append(minus + 1)
        i = j
    return d_list or None


# --- greedy parameter synthesis ---------------------------------------------


@dataclass(frozen=True)
class GreedyParams:
    """Exact rational exponent data: alpha/beta indexed 0..k, and L, the lcm
    of all denominators (so L*alpha_i and L*beta_i are integers)."""

    d_list: tuple[int, ...]
    epsilon: Fraction
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    L: int

    def __post_init__(self):
        k = len(self.d_list)
        a, b, eps = self.alpha, self.beta, self.epsilon
        assert 0 < a[0] < eps
        assert a[1] == eps
        for i in range(1, k):
            assert a[i] < a[i + 1]
        assert a[k] < 1
        for i in range(1, k + 1):
            assert b[i] == 1 + eps - a[i]
            assert eps < b[i] <= 1
        assert a[0] == eps / 3 and b[0] == 1 - eps / 3
        for i in range(1, k):
            assert a[i + 1] == a[i] + b[i] / self.d_list[i - 1]


def greedy_params(d_list) -> GreedyParams:
    """epsilon is half the validity bound prod(1 - 1/d_j), j < k."""
    d_list = tuple(d_list)
    if not d_list or any(d < 2 for d in d_list):
        raise ValueError("every d_i must be >= 2 and k >= 1")
    k = len(d_list)
    bound = Fraction(1)
    for d in d_list[:-1]:
        bound *= 1 - Fraction(1, d)
    epsilon = bound / 2
    alpha = [epsilon / 3, epsilon]
    beta = [1 - epsilon / 3, 1 + epsilon - epsilon]
    for i in range(1, k):
        a_next = alpha[i] + beta[i] / d_list[i - 1]
        alpha.append(a_next)
        beta.append(1 + epsilon - a_next)
    L = 1
    for f in itertools.chain(alpha, beta):
        L = L * f.denominator // math.gcd(L, f.denominator)
    return GreedyParams(d_list, epsilon, tuple(alpha), tuple(beta), L)


class WeightTable:
    """Maximal r-exponents W(x) over decompositions x = sum l_i with
    0 <= l_i <= d_i, where a full factor weighs d_i*alpha_i + beta_i and a
    partial one l_i*alpha_i.  The greedy decomposition (fill from the last
    factor) attains the maximum."""

    def __init__(self, d_list):
        self.params = greedy_params(d_list)
        self.d_list = tuple(d_list)
        self.k = len(self.d_list)
        self.D = sum(self.d_list)

    def weight(self, i: int, l: int) -> Fraction:
        """w_i(l) for factor i in 1..k."""
        d = self.d_list[i - 1]
        if not 0 <= l <= d:
            raise ValueError("degree out of range")
        if l == d:
            return d * self.params.alpha[i] + self.params.beta[i]
        return l * self.params.alpha[i]

    def W(self, x: int) -> Fraction:
        if not 0 <= x <= self.D:
            raise ValueError("x outside [0, D]")
        rem = x
        total = Fraction(0)
        for i in range(self.k, 0, -1):
            d = self.d_list[i - 1]
            if rem >= d:
                total += self.weight(i, d)
                rem -= d
            else:
                total += self.weight(i, rem)
                rem = 0
                break
        return total

    def brute_force_W(self, x: int) -> Fraction:
        """Exhaustive maximum over all decompositions; test oracle only."""
        best = None
        for ls in itertools.product(*(range(d + 1) for d in self.d_list)):
            if sum(ls) != x:
                continue
            w = sum(
                (self.weight(i + 1, l) for i, l in enumerate(ls)),
                Fraction(0),
            )
            if best is None or w > best:
                best = w
        return best


def target_pattern(d_list) -> Pattern:
    out = [-1]
    for d in d_list:
        out.append(1)
        out.extend([-1] * (d - 1))
    return tuple(out)


def predict_signs(d_list) -> Pattern:
    """Asymptotic signs of the middle coefficients (degrees D+1 down to 1):
    for each degree, maximize w_0(l_0) + W(h - l_0) over l_0 in {0..3}; the
    coefficient is negative exactly when the unique maximizer is l_0 = 1."""
    table = WeightTable(d_list)
    p = table.params
    w0 = [
        Fraction(0),
        p.alpha[0] + p.beta[0],  # = 1, the sign-negative term
        2 * p.alpha[0],
        3 * p.alpha[0] + p.beta[0],
    ]
    signs = []
    for h in range(table.D + 1, 0, -1):
        best = None
        best_l0 = None
        for l0 in range(4):
            x = h - l0
            if not 0 <= x <= table.D:
                continue
            val = w0[l0] + table.W(x)
            if best is None or val > best:
                best, best_l0 = val, l0
            elif val == best:
                raise AssertionError(
                    f"internal error: weight tie at degree {h} (l0={best_l0},{l0})"
                )
        signs.append(-1 if best_l0 == 1 else 1)
    return tuple(signs)


def instantiate(d_list, params: GreedyParams, b: int) -> PolytopeExpr:
    """r = b^L; r_i = r^{alpha_i} and m_i = r^{beta_i} are exact integers
    because L clears every denominator."""
    if b < 2:
        raise ValueError("base b must be >= 2")
    L = params.L
    factors = []
    for i, d in enumerate(d_list, start=1):
        ea = L * params.alpha[i]
        eb = L * params.beta[i]
        assert ea.denominator == 1 and eb.denominator == 1
        factors.append((b ** int(ea), EulerianS(d, b ** int(eb))))
    ea0 = L * params.alpha[0]
    eb0 = L * params.beta[0]
    assert ea0.denominator == 1 and eb0.denominator == 1
    factors.append((b ** int(ea0), ReeveT(b ** int(eb0))))
    return PolytopeExpr(tuple(factors))


def verify_expr(e: PolytopeExpr, p: Pattern) -> bool:
    """True iff the exact sign vector matches p (EhrhartPoly itself rejects
    a non-positive leading, second or constant coefficient)."""
    p = validate_pattern(p)
    if e.dim != len(p) + 2:
        raise ValueError(f"dimension mismatch: expr dim {e.dim}, pattern wants {len(p) + 2}")
    return sign_vector(expr_ehrhart(e)) == p


def construct_case6(d_list) -> tuple[PolytopeExpr, EhrhartPoly, int]:
    """Search b = 2..DEFAULT_MAX_BASE for an exact instantiation realizing
    the target pattern."""
    d_list = tuple(d_list)
    target = target_pattern(d_list)
    params = greedy_params(d_list)
    for b in range(2, DEFAULT_MAX_BASE + 1):
        expr = instantiate(d_list, params, b)
        ehr = expr_ehrhart(expr)
        sv = sign_vector(ehr)
        if sv == target:
            return expr, ehr, b
    raise SearchExhausted("case6", target, sv)


# --- the recursive constructor: Cases 1-3, 5 and 6 ---------------------------


@dataclass(frozen=True)
class ConstructResult:
    expr: PolytopeExpr
    ehrhart: EhrhartPoly
    trace: tuple[str, ...]


_DIM2_BLOCK = EulerianS(2, 1)

# The d = 3 and d = 4 witnesses, pattern -> expr, as generate_base_catalog
# finds them.
_CATALOG = {
    "+": PolytopeExpr(((1, ReeveT(1)),)),
    "-": PolytopeExpr(((1, ReeveT(13)),)),
    "++": PolytopeExpr(((1, Interval(1)), (1, ReeveT(1)))),
    "+-": PolytopeExpr(((1, Interval(1)), (2, ReeveT(18)))),
    "-+": PolytopeExpr(((1, Interval(2)), (1, ReeveT(18)))),
    "--": PolytopeExpr(((1, Interval(1)), (1, ReeveT(19)))),
}


def _floor_ratio(num: int, den: int) -> int:
    """floor(|num| / |den|).  Two coefficients of one Ehrhart polynomial share
    its denominator, so their ratio is the ratio of their integer numerators."""
    return abs(num) // abs(den)


def _product_threshold(p1, d1: int, p2, pattern: Pattern, d: int) -> int | None:
    """Sufficient r for r*Q1 x Q2, from the integer numerators p1, p2 of
    their Ehrhart polynomials: coefficient j of the product is
    sum_k r^k a_k b_{j-k}, dominated by k* = min(j, d1) once r clears the
    ratio of the residual mass to the dominant term (both over the same
    den1 * den2).  None when a dominant term's sign contradicts the pattern
    (this split cannot work)."""
    a = p1.coeffs  # degree d1 >= k_star
    b = p2.coeffs + (0,) * (d - len(p2.coeffs))  # j - k runs past its degree
    r0 = 2
    for idx, s in enumerate(pattern):
        j = d - 2 - idx
        k_star = min(j, d1)
        dom = a[k_star] * b[j - k_star]
        if dom == 0 or _sgn(dom) != s:
            return None
        rest = sum(abs(a[k] * b[j - k]) for k in range(k_star))
        if rest:
            r0 = max(r0, _floor_ratio(rest, dom) + 1)
    return r0


def construct(pattern) -> ConstructResult:
    """Resolve any +/- pattern (length d-2 >= 1) to a verified witness."""
    return _construct(validate_pattern(pattern))


def _certify(
    expr: PolytopeExpr,
    ehr: EhrhartPoly,
    pattern: Pattern,
    step: str,
    *subs: ConstructResult,
) -> ConstructResult:
    """Certify a step by the exact sign vector of ehr, the Ehrhart
    polynomial of expr as the step built it: the product of its sub-witness's
    polynomial (dilated) and the new block's closed form, or for a catalog
    entry its expansion.  Return the witness with the step's trace followed
    by the sub-witnesses' traces, or raise SearchExhausted carrying the sign
    vector when it does not realize the pattern."""
    sv = sign_vector(ehr)
    if sv != pattern:
        raise SearchExhausted(step.partition("[")[0], pattern, sv)
    trace = (step,) + tuple(t for sub in subs for t in sub.trace)
    return ConstructResult(expr, ehr, trace)


def _extend(
    sub: ConstructResult,
    r: int,
    qr: EhrhartPoly,
    block: Block,
    pattern: Pattern,
    step: str,
) -> ConstructResult:
    """Certify r*sub x block from qr = i(r*sub, t) times i(block, t)."""
    expr = sub.expr.dilated(r) * PolytopeExpr(((1, block),))
    return _certify(expr, ehr_product(qr, block_ehrhart(block)), pattern, step, sub)


@lru_cache(maxsize=None)
def _size_line(make_block) -> tuple[Poly, Poly]:
    """Slope P(2) - P(1) and intercept 2P(1) - P(2) of a block's polynomial
    P(m), which is affine in its size m, as integer numerators scaled by the
    lcm of the two members' denominators (one positive denominator)."""
    e1, e2 = (block_ehrhart(make_block(m)) for m in (1, 2))
    den = math.lcm(e1.den, e2.den)
    p1, p2 = e1.num.scale(den // e1.den), e2.num.scale(den // e2.den)
    return p2 - p1, p1.scale(2) - p2


def _solve_size(qr: Poly, make_block, pattern: Pattern, d: int, case: str) -> int:
    """Smallest size m >= 1 for which qr * i(make_block(m), t) realizes the
    pattern, qr the integer numerator of the dilated sub-witness.  With the
    block's `_size_line`, the middle coefficients are A_j*m + B_j over one
    positive denominator, A_j and B_j integers.  SearchExhausted when an A_j
    sign (a B_j sign where A_j = 0) points the wrong way."""
    slope, intercept = _size_line(make_block)
    # qr has degree d - k for a block of dimension k, slope and intercept
    # degrees k and k - 1, so both products reach index d - 2
    A, B = (qr * slope).coeffs, (qr * intercept).coeffs
    need = 1
    for s, a, b in zip(pattern, A[d - 2 : 0 : -1], B[d - 2 : 0 : -1]):
        if _sgn(b if a == 0 else a) != s:
            raise SearchExhausted(case, pattern)
        if _sgn(b) != s:
            need = max(need, _floor_ratio(b, a) + 1)
    return need


@lru_cache(maxsize=None)
def _construct(pattern: Pattern) -> ConstructResult:
    d = len(pattern) + 2

    if len(pattern) == 0:
        expr = PolytopeExpr(((1, _DIM2_BLOCK),))
        return ConstructResult(expr, block_ehrhart(_DIM2_BLOCK), ("base-dim2",))

    if d in (3, 4):
        expr = _CATALOG[format_pattern(pattern)]
        return _certify(expr, expr_ehrhart(expr), pattern, f"catalog-d{d}")

    # Step parameters can pass the int-to-str limit (a Case-1 r has over
    # 5,000 digits at d = 16), so the traces write them with decimal_str.

    # Case 1: top middle coefficient positive -> r*Q x [0,1].  The product
    # coefficients are r^j c_j + r^{j-1} c_{j-1}, so any r beyond the largest
    # |c_{j-1}/c_j| ratio keeps every middle sign equal to sgn(c_j).
    if pattern[0] == 1:
        sub = _construct(pattern[1:])
        c = sub.ehrhart.num.coeffs
        r = 1 + max(map(_floor_ratio, c[: d - 2], c[1 : d - 1]))
        qr = ehr_dilate(sub.ehrhart, r)
        return _extend(sub, r, qr, Interval(1), pattern, f"case1[r={decimal_str(r)}]")

    # Case 2: bottom middle coefficient positive -> Q x [0,m]; coefficients
    # are linear in m, so solve for the smallest m directly.
    if pattern[-1] == 1:
        sub = _construct(pattern[:-1])
        m = _solve_size(sub.ehrhart.num, Interval, pattern, d, "case2")
        return _extend(sub, 1, sub.ehrhart, Interval(m), pattern, f"case2[m={decimal_str(m)}]")

    # Case 3: top two and bottom negative -> r*Q x ReeveT(m), Q realizing the
    # negated inner pattern.  The m-slope of i(ReeveT(m), t) is (t^3 - t)/6:
    # with u_j = r^j c_j the m-coefficient is (u_{j-3} - u_{j-1})/6, dominated
    # by -u_{j-1} once r clears every |c_{j-3}/c_{j-1}| ratio; then solve for m.
    # (The ratios start at j = 3: below it c_{j-3} is 0.)
    if pattern[0] == -1 and pattern[1] == -1 and pattern[-1] == -1:
        sub = _construct(tuple(-s for s in pattern[2:-1]))
        c = sub.ehrhart.num.coeffs
        r = 1 + max(map(_floor_ratio, c[: d - 4], c[2 : d - 2]))
        qr = ehr_dilate(sub.ehrhart, r)
        m = _solve_size(qr.num, ReeveT, pattern, d, "case3")
        step = f"case3[r={decimal_str(r)},m={decimal_str(m)}]"
        return _extend(sub, r, qr, ReeveT(m), pattern, step)

    # Cases 1-3 did not fire, so the pattern starts and ends with -1 and its
    # second sign is +1.  Either it contains two consecutive +1 (Case 5), or
    # every +1 is followed by at least one -1: the shape -(+-^a1)(+-^a2)...
    # that decompose_pattern accepts (Case 6, whose base search certifies
    # every block list with block sum <= 20 at b <= 10).  So routing is total.

    # Case 5: two consecutive +1 -> split product Q1 x Q2 (dims d1 >= d2) with
    # one factor dilated: r*Q1 x Q2 (5.1) or Q1 x r*Q2 (5.2).  The dilated
    # factor, of dimension k, needs s_k = s_{k-1} = +1, where s_i = pattern[d-2-i].
    # k runs over 2..d-2, so the loop tries every pair of neighbouring signs
    # and falls through exactly when the pattern has no ++ (Case 6).
    for d1 in range(d - 2, (d - 1) // 2, -1):  # d1 >= d2
        d2 = d - d1
        for case, k in (("case5.1", d1), ("case5.2", d2)):
            if pattern[d - 2 - k] != 1 or pattern[d - 1 - k] != 1:
                continue
            top = _construct(pattern[d - k :])  # dims k, dilated
            low = _construct(pattern[: d - k - 2])  # dims d - k
            r = _product_threshold(top.ehrhart.num, k, low.ehrhart.num, pattern, d)
            if r is None:
                raise SearchExhausted(case, pattern)
            step = f"{case}[d1={d1},d2={d2},r={decimal_str(r)}]"
            dilated = top.expr.dilated(r)
            ehr = ehr_product(ehr_dilate(top.ehrhart, r), low.ehrhart)
            if case == "case5.1":
                return _certify(dilated * low.expr, ehr, pattern, step, top, low)
            return _certify(low.expr * dilated, ehr, pattern, step, low, top)

    # Case 6: the residual shape always decomposes
    d_list = decompose_pattern(pattern)
    if d_list is None:
        raise AssertionError(
            f"internal error: no case applies to {format_pattern(pattern)} "
            "(cases 1-3, 5 and 6 should be exhaustive)"
        )
    expr, ehr, b = construct_case6(d_list)
    return ConstructResult(expr, ehr, (f"case6[d_list={d_list},b={b}]",))


# --- base catalog ------------------------------------------------------------

_CATALOG_R_GRID = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
_CATALOG_M_GRID = [1, 2, 6, 13, 18, 19, 20, 40, 100, 120, 200]


def generate_base_catalog() -> dict:
    """Recompute the d=3 and d=4 witnesses (deterministic bounded search);
    returns the pattern -> expr table that _CATALOG holds."""
    out: dict = {}
    for pat, m in (("+", 1), ("-", 13)):
        expr = PolytopeExpr(((1, ReeveT(m)),))
        if not verify_expr(expr, parse_pattern(pat)):
            raise AssertionError(f"d=3 witness for {pat} failed")
        out[pat] = expr

    wanted = {pat: parse_pattern(pat) for pat in ("++", "+-", "-+", "--")}
    found: dict = {}
    for r1 in _CATALOG_R_GRID:
        for m1 in _CATALOG_M_GRID:
            for r2 in _CATALOG_R_GRID:
                for m2 in _CATALOG_M_GRID:
                    expr = PolytopeExpr(((r1, Interval(m1)), (r2, ReeveT(m2))))
                    ehr = expr_ehrhart(expr)
                    sv = sign_vector(ehr)
                    for pat, target in wanted.items():
                        if pat not in found and sv == target:
                            found[pat] = expr
                    if len(found) == len(wanted):
                        return out | {p: found[p] for p in wanted}
    missing = set(wanted) - set(found)
    raise AssertionError(f"d=4 catalog search failed for {missing}")
