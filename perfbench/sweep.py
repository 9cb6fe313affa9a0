"""`sweep` workload: every +/- pattern of lengths 1..12 passed to `construct`.

One pass is all 8190 patterns in a seed-shuffled order, in a fresh process,
so the memo inside `construct` fills during the pass as it does in a user's
sweep.  Set-up imports the package and loads the base catalog; it constructs
no pattern.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import pickle
import random

MAX_LENGTH = 12


def all_patterns(max_length: int = MAX_LENGTH) -> list[tuple[int, ...]]:
    return [
        p
        for length in range(1, max_length + 1)
        for p in itertools.product((1, -1), repeat=length)
    ]


def patterns(seed: int, pass_index: int) -> list[tuple[int, ...]]:
    pats = all_patterns()
    random.Random(f"sweep:{seed}:{pass_index}").shuffle(pats)
    return pats


def setup() -> None:
    import ehrsign.signpattern as sp

    load_catalog = getattr(sp, "_catalog", None)
    if load_catalog is not None:
        load_catalog()


def execute(pattern):
    import ehrsign.signpattern as sp

    return sp.construct(pattern)


def witness_bits(expr) -> int:
    """Sum over factors (r, block) of the bit lengths of r and of the
    block's size parameter (`a` for Quad, otherwise `m`)."""
    total = 0
    for r, block in expr.factors:
        size = getattr(block, "a", None)
        if size is None:
            size = getattr(block, "m", 0)
        total += int(r).bit_length() + int(size).bit_length()
    return total


def digest(result) -> bytes:
    """sha256 of the witness and its Ehrhart polynomial in a canonical form,
    so a later pass can recognise a witness that was already checked."""
    expr = tuple(
        (r, type(block).__name__, dataclasses.astuple(block)) for r, block in result.expr.factors
    )
    poly = tuple((c.numerator, c.denominator) for c in result.ehrhart.poly.coeffs)
    return hashlib.sha256(pickle.dumps((expr, poly), protocol=4)).digest()


def middle_signs(coeffs, dim: int) -> tuple[int, ...]:
    """Signs of the coefficients of t^(dim-2), ..., t^1."""
    out = []
    for i in range(dim - 2, 0, -1):
        c = coeffs[i] if i < len(coeffs) else 0
        out.append((c > 0) - (c < 0))
    return tuple(out)


def check(pattern, result) -> str | None:
    """None when the witness is right; otherwise what is wrong."""
    from ehrsign.signpattern import verify_expr

    dim = len(pattern) + 2
    if result.expr.dim != dim:
        return f"witness has dimension {result.expr.dim}, pattern needs {dim}"
    if middle_signs(result.ehrhart.poly.coeffs, dim) != tuple(pattern):
        return "sign vector of the returned Ehrhart polynomial differs from the pattern"
    if not verify_expr(result.expr, pattern):
        return "re-expanding the witness does not give the pattern"
    return None
