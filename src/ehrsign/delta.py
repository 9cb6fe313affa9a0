"""The simplex family Delta(0,q) and its h*-polynomials.

Delta(0,q) = conv{0, e_1, ..., e_{d-1}, n*e_d + sum q_i e_i}.  Its
h*-polynomial is sum_{j=0}^{n-1} x^{ceil(q_1 j/n) + ... + ceil(q_d j/n)}
with the derived last coordinate q_d = 1 - sum_{i<d} q_i.

Two computation paths are provided: the direct O(n*d) summation and a
breakpoint/plateau reconstruction that needs only O(sum |r_i|) operations.
The breakpoints need n >= |q_i|, so that pass first reduces q mod n
(`reduce_q`): a unimodular shear maps Delta(0,q) to Delta(0,r) with
r_i = q_i mod n, |r_i| < n and the same h*.  `hstar` reduces once and runs
whichever pass costs less on r (`_direct_sum_pays`).  Each pass runs as a
big-int Python loop, or in bulk in numpy under an int64 bound once its size
reaches a measured cut (`_numpy_pays`): a low cut once numpy is loaded, a
high one before, where the call must also pay for importing numpy.  The
direct sum's size is n (cuts 512 and 10^5), the breakpoint pass's is
sum |r_i| (200 and 1.5*10^5).  The module also computes the
characteristic polynomials L1, L2 of the parametric family where n is
scaled by m (requires q_i | n): h* of the member is m*x*L1(x) + L2(x), so
x*L1 is read off the m = 2 and m = 1 members, with the A(j) sum as the
naive reference.  Last come the closed-form special families used as
golden vectors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .polynomials import Poly

# numpy paths are used only when every intermediate |q_i * j| provably fits
# in int64; otherwise we fall back to Python big ints.  numpy is imported
# on those paths only, so importing the package does not load it.
_INT64_SAFE = 2**62

# n from which hstar_naive's defining sum runs in numpy: with numpy loaded,
# and cold, where it also pays the ~0.15 s numpy import (the loop takes
# 1.1..2.2 us per j at d = 3..8, break-even n 7e4..1.2e5).  Measured on a
# 2-vCPU Xeon VM, Python 3.11, numpy 2.4.
_NAIVE_CUT_WARM = 512
_NAIVE_CUT_COLD = 100_000

# j per block of hstar_naive's numpy sum, whose temporaries peak near 32
# bytes per j: about 34 MB whatever n is, one block for every n <= 10^6.
_NAIVE_BLOCK = 1 << 20


def _numpy_pays(work: int, warm_cut: int, cold_cut: int) -> bool:
    """Whether a numpy pass over `work` beats the Python loop: from warm_cut
    on when numpy is already loaded, from cold_cut on when the pass would
    have to import it first.  The one numpy-or-loop rule of the package;
    the caller still checks that its integers fit int64."""
    return work >= (warm_cut if "numpy" in sys.modules else cold_cut)


class DivisibilityError(ValueError):
    """The family Delta(0,q^(m)) requires q_i | n for all i, q_i != 0."""


@dataclass(frozen=True)
class DeltaQ:
    """Parameters (q_1,...,q_{d-1}, n); q_d and d are derived."""

    q_head: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "q_head", tuple(int(q) for q in self.q_head))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if len(self.q_head) < 1:
            raise ValueError("dimension must be at least 2")

    @property
    def d(self) -> int:
        return len(self.q_head) + 1

    @property
    def q_d(self) -> int:
        return 1 - sum(self.q_head)

    @property
    def q_full(self) -> tuple[int, ...]:
        return self.q_head + (self.q_d,)

    def vertices(self) -> list[tuple[int, ...]]:
        d = self.d
        verts = [tuple([0] * d)]
        for i in range(d - 1):
            verts.append(tuple(1 if j == i else 0 for j in range(d)))
        verts.append(self.q_head + (self.n,))
        return verts


@dataclass(frozen=True)
class HStar:
    """An IntPoly certified as an h*-polynomial of a dim-dimensional polytope."""

    poly: Poly
    dim: int

    def __post_init__(self):
        p = self.poly
        if p[0] != 1:
            raise ValueError("h* must have constant term 1")
        if any(not isinstance(c, int) or c < 0 for c in p.coeffs):
            raise ValueError("h* coefficients must be nonnegative integers")
        if p.degree > self.dim:
            raise ValueError("h* degree exceeds dimension")

    def normalized_volume(self) -> int:
        return self.poly.eval(1)


def _ceil_div(a: int, b: int) -> int:
    # b > 0; exact ceil(a/b) on big ints
    return -((-a) // b)


def reduce_q(s: DeltaQ) -> DeltaQ:
    """The Delta(0,r) with the same h* as s, r_i = q_i mod n, |r_i| < n.

    The shear x_i -> x_i - a_i*x_d is unimodular and fixes 0 and every e_i
    (i < d); with q_i = a_i*n + r_i it maps the last vertex to
    n*e_d + sum r_i e_i, and in the defining sum it changes the exponent at
    j by (sum a_i)*j = 0, since q and r both sum to 1.  Take every residue in
    [0, n), q_d included: they sum to 1 + k*n with k below the number of
    nonzero residues, so subtracting n from the k largest (ties by index)
    leaves a sum of 1.  That choice also minimizes sum |r_i|, so it never
    exceeds sum |q_i| when every |q_i| <= n, and reducing r again returns r.
    For n = 1 every Delta(0,q) is unimodular and r = (0,...,0,1)."""
    n = s.n
    if n == 1:
        return DeltaQ((0,) * (s.d - 1), 1)
    res = [q % n for q in s.q_full]
    k = (sum(res) - 1) // n
    for i in sorted(range(s.d), key=lambda i: -res[i])[:k]:
        res[i] -= n
    return DeltaQ(tuple(res[:-1]), n)


def _exponents_numpy_ok(s: DeltaQ) -> bool:
    return _numpy_pays(s.n, _NAIVE_CUT_WARM, _NAIVE_CUT_COLD) and all(
        abs(q) * (s.n - 1) < _INT64_SAFE for q in s.q_full
    )


def hstar_naive(s: DeltaQ) -> HStar:
    """Direct evaluation of the defining sum on q as given (O(n*d)
    operations): the tests' reference and `--method naive`."""
    n, d = s.n, s.d
    qs = [q for q in s.q_full if q]
    if _exponents_numpy_ok(s):
        import numpy as np

        counts = np.zeros(d + 1, dtype=np.int64)
        for start in range(0, n, _NAIVE_BLOCK):
            j = np.arange(start, min(start + _NAIVE_BLOCK, n), dtype=np.int64)
            e = -sum((-q * j) // n for q in qs)
            if int(e.min()) < 0 or int(e.max()) > d:
                raise AssertionError("internal error: h* exponent outside [0, d]")
            counts += np.bincount(e, minlength=d + 1)
        return HStar(Poly(int(c) for c in counts), d)
    counts = [0] * (d + 1)
    for j in range(n):
        exp = sum(_ceil_div(q * j, n) for q in qs)
        if not 0 <= exp <= d:
            raise AssertionError("internal error: h* exponent outside [0, d]")
        counts[exp] += 1
    return HStar(Poly(counts), d)


def breakpoints_for(q_i: int, n: int) -> list[tuple[int, int]]:
    """Positions j in [1, n-1] where ceil(q_i*j/n) jumps, with jump sign.

    For q_i > 0 the jump is +1 at floor((m-1)*n/q_i)+1; for q_i < 0 it is -1
    at ceil(m*n/|q_i|).  q_i = 0 contributes nothing.
    """
    if q_i == 0:
        return []
    assert abs(q_i) <= n, "breakpoints need |q_i| <= n: reduce q first"
    if q_i > 0:
        count = q_i - 1 if q_i == n else q_i
        return [((m - 1) * n // q_i + 1, 1) for m in range(1, count + 1)]
    qa = -q_i
    return [(_ceil_div(m * n, qa), -1) for m in range(1, qa)]


def _net_jumps(s: DeltaQ) -> dict[int, int]:
    """Net jump of sum_i ceil(q_i*j/n) at each breakpoint position j."""
    net: dict[int, int] = {}
    for q in s.q_full:
        for pos, sign in breakpoints_for(q, s.n):
            net[pos] = net.get(pos, 0) + sign
    return net


def difference_poly(s: DeltaQ) -> Poly:
    """The sparse difference polynomial F(x) = sum_i sum_j (jump of
    ceil(r_i*j/n)) x^j of r = reduce_q(s), the fast path's intermediate."""
    net = _net_jumps(reduce_q(s))
    if not net:
        return Poly.zero()
    out = [0] * (max(net) + 1)
    for pos, c in net.items():
        out[pos] = c
    return Poly(out)


def _plateau_counts(s: DeltaQ) -> list[int]:
    """Coefficients of h*: the plateau lengths of the height
    sum_i ceil(q_i*j/n), summed per height, from the big-int `_net_jumps`."""
    n, d = s.n, s.d
    net = _net_jumps(s)
    # the height is 0 at j = 0 and changes only at the sorted breakpoints;
    # each plateau adds its length to x^height
    counts = [0] * (d + 1)
    height = 0
    prev = 0
    for pos in sorted(net):
        if pos > prev:
            if not 0 <= height <= d:
                raise AssertionError("internal error: plateau height outside [0, d]")
            counts[height] += pos - prev
            prev = pos
        height += net[pos]
    if not 0 <= height <= d:
        raise AssertionError("internal error: plateau height outside [0, d]")
    counts[height] += n - prev
    return counts


def _net_jumps_numpy(s: DeltaQ):
    """`_net_jumps` in bulk: the breakpoint positions in increasing order and
    the net jump at each, as two int64 arrays.  Needs |q_i|*n < 2^62 for
    every i, so that every m*n below fits."""
    import numpy as np

    n = s.n
    ups, downs = [], []
    for q in s.q_full:
        if q > 0:
            m = np.arange(q - 1 if q == n else q, dtype=np.int64)
            ups.append(m * n // q + 1)
        elif q < 0:
            m = np.arange(1, -q, dtype=np.int64)
            downs.append(-((m * -n) // -q))
    n_up = sum(len(a) for a in ups)
    pos = np.concatenate(ups + downs)  # q_full sums to 1: ups is never empty
    order = np.argsort(pos)
    pos = pos[order]
    sign = np.where(order < n_up, 1, -1)
    # one entry per distinct position, its signs summed
    first = np.flatnonzero(np.diff(pos, prepend=-1))
    return pos[first], np.add.reduceat(sign, first)


def _plateau_counts_numpy(s: DeltaQ) -> list[int]:
    """`_plateau_counts` in bulk, under the same int64 bound as
    `_net_jumps_numpy`.  Distinct positions leave no empty plateau; lengths
    reach n, so they are summed per height in int64, never as float weights."""
    import numpy as np

    pos, net = _net_jumps_numpy(s)
    heights = np.concatenate(([0], np.cumsum(net)))
    lengths = np.diff(pos, prepend=0, append=s.n)
    if heights.min() < 0 or heights.max() > s.d:
        raise AssertionError("internal error: plateau height outside [0, d]")
    counts = np.zeros(s.d + 1, dtype=np.int64)
    np.add.at(counts, heights, lengths)
    return counts.tolist()


# sum |q_i| from which the numpy branch beats the loop: with numpy loaded
# (d = 3..16 break even at 100..180), and cold, where it also pays for the
# ~0.15 s numpy import (break-even 1.4e5..1.6e5).  Measured at n = 10^12 on
# a 2-vCPU Xeon VM, Python 3.11, numpy 2.4.
_NUMPY_CUT_WARM = 200
_NUMPY_CUT_COLD = 150_000


def _jumps_numpy_ok(s: DeltaQ) -> bool:
    work = sum(abs(q) for q in s.q_full)
    return _numpy_pays(work, _NUMPY_CUT_WARM, _NUMPY_CUT_COLD) and all(
        abs(q) * s.n < _INT64_SAFE for q in s.q_full
    )


def hstar_fast(s: DeltaQ) -> HStar:
    """Breakpoint/plateau computation on `reduce_q(s)`; O(sum |r_i|)
    operations, independent of n, and exact for every q.

    The plateaus are summed in numpy when every |r_i|*n < 2^62 (so every
    breakpoint m*n fits int64) and sum |r_i| reaches _NUMPY_CUT_WARM with
    numpy already loaded, or _NUMPY_CUT_COLD without; otherwise, and past
    int64, by the big-int loop.  Both give the same h*."""
    s = reduce_q(s)
    counts = _plateau_counts_numpy(s) if _jumps_numpy_ok(s) else _plateau_counts(s)
    return HStar(Poly(counts), s.d)


# n*d / sum |r_i| from which `hstar` runs the breakpoint pass on a reduced r
# when both passes would run in numpy.  Per element the numpy breakpoint
# pass (argsort, reduceat) costs 13..31x the numpy direct sum at d = 3..8
# (medians 23 and 15 over 40 `queries` numpy- and big-int-stratum instances
# each); at a cut of 8 its temporaries peaked at 34 MB over the `queries`
# stream (tracemalloc), at 12..32 at 24 MB.  The two loops cost about the
# same per element (0.3..0.7 us, break-even 1.1..1.9x) and sum |r_i| < n*d,
# so a loop breakpoint pass is kept, and never traded for a direct sum that
# would import numpy first.  Same VM as the cuts above.
_PASS_CUT = 16


def _direct_sum_pays(r: DeltaQ) -> bool:
    """Whether the direct sum costs less than the breakpoint pass on r."""
    work = sum(abs(q) for q in r.q_full)
    return _PASS_CUT * work > r.n * r.d and _jumps_numpy_ok(r) and _exponents_numpy_ok(r)


def hstar(s: DeltaQ) -> HStar:
    """Public entry point: reduce q mod n once (`reduce_q`) and run the
    cheaper exact pass on r: the breakpoint pass (work sum |r_i|) or the
    direct sum (work n*d), as `_direct_sum_pays` measures them."""
    r = reduce_q(s)
    return hstar_naive(r) if _direct_sum_pays(r) else hstar_fast(r)


def _check_divisibility(s: DeltaQ) -> None:
    for q in s.q_full:
        if q == 0 or s.n % q != 0:
            raise DivisibilityError(
                f"q_i | n required for the Delta(0,q^(m)) family (q={s.q_full}, n={s.n})"
            )


def _l_poly_naive(s: DeltaQ) -> Poly:
    """L(x) = x*L1(x) = sum_j x^{A(j)}, A(j) = sum_i ceil((q_i j + q_i^+)/n)."""
    n = s.n
    counts = [0] * (s.d + 1)
    for j in range(n):
        a = sum(_ceil_div(q * j + max(q, 0), n) for q in s.q_full)
        if not 1 <= a <= s.d:
            raise AssertionError("internal error: L exponent outside [1, d]")
        counts[a] += 1
    return Poly(counts)


def l1_l2(s: DeltaQ) -> tuple[Poly, Poly]:
    """Characteristic polynomials: h* of the family member with n -> m*n
    equals m*x*L1(x) + L2(x).  Requires q_i | n for all i (q_i != 0).

    Being affine in m, L = x*L1 is h* of the m = 2 member minus h* of the
    m = 1 member; _l_poly_naive, the A(j) sum, is the tests' reference."""
    _check_divisibility(s)
    h = hstar(s).poly
    l = hstar(DeltaQ(s.q_head, 2 * s.n)).poly - h
    return Poly(l.coeffs[1:]), h - l


def hstar_family(s: DeltaQ, m: int) -> HStar:
    """h* of Delta(0, q^(m)), the member with n replaced by m*n; it equals
    m*x*L1(x) + L2(x) for the `l1_l2` pair.  Requires q_i | n for all i."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    _check_divisibility(s)
    return hstar(DeltaQ(s.q_head, m * s.n))


# --- closed-form special families -------------------------------------------


def r_odd(s: int, k: int, a: int) -> tuple[DeltaQ, HStar]:
    """Odd-dimensional (d = 2k-1) simplex with last vertex
    (a,...,a, -a,...,-a, s+1); h* = (s+1-b)x^k + (b-1)x + 1, b = gcd(a, s+1)."""
    if k < 2 or s < 0 or a < 0:
        raise ValueError("require k >= 2, s >= 0, a >= 0")
    dq = DeltaQ((a,) * (k - 1) + (-a,) * (k - 1), s + 1)
    b = math.gcd(a, s + 1)
    coeffs = [0] * (k + 1)
    coeffs[0] = 1
    coeffs[1] += b - 1
    coeffs[k] += s + 1 - b
    return dq, HStar(Poly(coeffs), 2 * k - 1)


def r_even(s: int, k: int, a: int) -> tuple[DeltaQ, HStar]:
    """Even-dimensional (d = 2k) variant; same h* as the odd one."""
    if k < 2 or s < 0 or a < 0:
        raise ValueError("require k >= 2, s >= 0, a >= 0")
    dq = DeltaQ((1,) + (a,) * (k - 1) + (-a,) * (k - 1), s + 1)
    _, h = r_odd(s, k, a)
    return dq, HStar(h.poly, 2 * k)


def extended_reeve(s: int, d: int) -> tuple[DeltaQ, HStar]:
    """Empty simplices with h* = s*x^k + 1 (k = ceil(d/2) for d=2k or 2k-1)."""
    if d < 3 or s < 0:
        raise ValueError("require d >= 3, s >= 0")
    k = (d + 1) // 2
    if d % 2 == 1:
        head = (1,) * (k - 1) + (s,) * (k - 1)
    else:
        head = (1,) * k + (s,) * (k - 1)
    dq = DeltaQ(head, s + 1)
    coeffs = [0] * (k + 1)
    coeffs[0] = 1
    coeffs[k] += s
    return dq, HStar(Poly(coeffs), d)


def all_minus_ones(d: int, m: int) -> tuple[DeltaQ, HStar]:
    """q = (-1,...,-1, d), scaled n = d*m; h* = m*sum_{i=1}^d x^i + 1 - x^d."""
    if d < 2 or m < 1:
        raise ValueError("require d >= 2, m >= 1")
    dq = DeltaQ((-1,) * (d - 1), d * m)
    coeffs = [1] + [m] * (d - 1) + [m - 1]
    return dq, HStar(Poly(coeffs), d)


def pow2(d: int, m: int) -> tuple[DeltaQ, HStar]:
    """q = (-2^0,...,-2^{d-2}, 2^{d-1}), scaled n = 2^{d-1}*m;
    h* = ((m-1)x + 1)(1+x)^{d-1}."""
    if d < 2 or m < 1:
        raise ValueError("require d >= 2, m >= 1")
    dq = DeltaQ(tuple(-(2**i) for i in range(d - 1)), 2 ** (d - 1) * m)
    h = Poly((1, m - 1)) * Poly((1, 1)) ** (d - 1)
    return dq, HStar(h, d)

