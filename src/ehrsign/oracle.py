"""Lattice-point ground truth.

Counts lattice points of dilates of Delta(0,q) (and of the 2-D quad block)
straight from the defining inequalities.  A closed form i(t) is checked
against these counts pointwise; agreement at t = 0..d fixes a degree-d
polynomial.  Everything is exact integer arithmetic: membership in
t*Delta(0,q) is tested with the inequalities scaled by n.

t*Delta(0,q) is counted one x_d slice at a time.  With x_d fixed, each
barycentric coordinate lam_i = x_i - q_i*x_d/n (i < d) is its smallest
feasible value plus a non-negative integer, so the slice is a dilated
standard simplex whose points one binomial coefficient counts.  The slices
are summed one by one, never grouped by x_d mod n: grouping them is the
h*->Ehrhart conversion itself, and the oracle exists to check that formula
independently.  The guard is a hard precondition, not silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .delta import DeltaQ


class OracleGuardError(ValueError):
    """Enumeration refused: instance exceeds the desk-scale guard."""


# Bound on the n*t slices one count walks: a slice costs 0.8-1.9 us at d <= 9
# (2-vCPU Xeon VM, Python 3.11), so a count at the bound takes at most 0.2 s.
MAX_SLICES = 100_000


@dataclass(frozen=True)
class DilationCount:
    t: int
    count: int
    interior_count: int

    def __post_init__(self):
        if not self.count >= self.interior_count >= 0:
            raise ValueError("count >= interior_count >= 0 violated")


def count_points(s: DeltaQ, t: int) -> DilationCount:
    """Exact |t*Delta(0,q) cap Z^d| and its interior count.

    x lies in t*Delta(0,q) iff lam_d := x_d/n >= 0, lam_i := x_i - q_i x_d/n
    >= 0, and sum lam <= t; interior uses strict inequalities.  Each of the
    n*t + 1 slices x_d = const is counted in O(d) from these inequalities
    on the n-scaled integers.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if s.n * t > MAX_SLICES:
        raise OracleGuardError(f"n*t = {s.n * t} exceeds the oracle guard {MAX_SLICES}")

    n = s.n
    qs = s.q_head
    free = len(qs)  # lam_1, ..., lam_{d-1}
    tn = t * n
    total = 0
    interior = 0
    for x_d in range(0, tn + 1):
        budget = tn - x_d  # n*(t - lam_d), left for lam_1 + ... + lam_{d-1}
        # n*lam_i = n*x_i - q_i*x_d runs over r_i, r_i + n, r_i + 2n, ...
        rs = [(-q * x_d) % n for q in qs]
        low = sum(rs)
        if low <= budget:
            total += math.comb((budget - low) // n + free, free)
            # interior: lam_d > 0, every lam_i > 0 (so n*lam_i starts at n
            # where r_i = 0) and the slack t - sum lam > 0
            low += n * rs.count(0)
            if x_d > 0 and low < budget:
                interior += math.comb((budget - low - 1) // n + free, free)
    return DilationCount(t, total, interior)


def count_quad_points(a: int, t: int) -> int:
    """Lattice points of t * conv{(0,0),(1,0),(2,a),(1,a)} by column scan."""
    if a < 1 or t < 0:
        raise ValueError("require a >= 1, t >= 0")
    total = 0
    for x in range(0, 2 * t + 1):
        if x <= t:
            lo, hi = 0, a * x
        else:
            lo, hi = a * (x - t), a * t
        total += hi - lo + 1
    return total
