"""Import-site tracing for the traced run.

Wraps public ehrsign callables at every place they are imported (the
defining module, the modules that import them, the package namespace) and
records one span per call: (name, start, end, parent index).  Spans stay in
memory; per-layer self time is the span's duration minus the time its child
spans cover.  Nothing here is installed in the untraced run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

INT64_SAFE = 2**62

# span name -> (module, attribute); "Class.method" patches the class.
TARGETS = {
    "polynomials.mul": ("ehrsign.polynomials", "Poly.__mul__"),
    "polynomials.compose_scale": ("ehrsign.polynomials", "Poly.compose_scale"),
    "polynomials.poly_to_json": ("ehrsign.polynomials", "poly_to_json"),
    "ehrhart.expr_ehrhart": ("ehrsign.ehrhart", "expr_ehrhart"),
    "ehrhart.from_hstar": ("ehrsign.ehrhart", "from_hstar"),
    "ehrhart.expr_to_json": ("ehrsign.ehrhart", "expr_to_json"),
    "signpattern.construct": ("ehrsign.signpattern", "construct"),
    "signpattern.verify_expr": ("ehrsign.signpattern", "verify_expr"),
    "signpattern.construct_case6": ("ehrsign.signpattern", "construct_case6"),
    "delta.hstar_fast": ("ehrsign.delta", "hstar_fast"),
    "delta.hstar_naive": ("ehrsign.delta", "hstar_naive"),
    "delta.l1_l2": ("ehrsign.delta", "l1_l2"),
    "delta.hstar_family": ("ehrsign.delta", "hstar_family"),
    "eulerian.sdm_hstar": ("ehrsign.eulerian", "sdm_hstar"),
    "eulerian.eulerian_recurrence": ("ehrsign.eulerian", "eulerian_recurrence"),
    "eulerian.eulerian_descent": ("ehrsign.eulerian", "eulerian_descent"),
    "oracle.count_points": ("ehrsign.oracle", "count_points"),
}

# hstar_naive is split by the input's int64 bound into two span names.
SPAN_NAMES = [n for n in TARGETS if n != "delta.hstar_naive"] + [
    "delta.hstar_naive.numpy",
    "delta.hstar_naive.bigint",
]

CASES = ("catalog", "case1", "case2", "case3", "case4", "case5", "case6")


def naive_path(s) -> str:
    """'numpy' when every |q_i|*(n-1) fits the int64 guard, else 'bigint'."""
    fits = all(abs(q) * (s.n - 1) < INT64_SAFE for q in s.q_full)
    return "numpy" if fits else "bigint"


def case_name(step) -> str:
    """The case named by a construct trace step ('case5.1[...]' -> 'case5')."""
    text = str(getattr(step, "case", step))
    for name in CASES:
        if text.startswith(name):
            return name
    return "other"


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c).bit_length()


class Tracer:
    """Spans and work counters for one traced phase."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, name_of=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_of(args) if name_of else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (span, t0, t1, parent)
            if after:
                after(args, result, t1 - t0)
            return result

        return wrapper

    def _after_mul(self, args, result, dt):
        a = getattr(args[0], "coeffs", ())
        b = getattr(args[1], "coeffs", ())
        c = self.counters
        c["mul.coeff_products"] += len(a) * len(b)
        if any(isinstance(x, Fraction) for x in a) or any(isinstance(x, Fraction) for x in b):
            c["mul.fraction_products"] += 1
        bits = max((_coeff_bits(x) for x in (*a, *b)), default=0)
        c["mul.operand_bits_max"] = max(c["mul.operand_bits_max"], bits)

    def _after_construct(self, args, result, dt):
        trace = getattr(result, "trace", None)
        case = case_name(trace[0]) if trace else "other"
        self.counters[f"case.{case}.count"] += 1
        self.counters[f"case.{case}.s"] += dt

    def _after_verify(self, args, result, dt):
        self.counters["verify.passes"] += bool(result)

    def _after_fast(self, args, result, dt):
        self.counters["hstar_fast.breakpoints"] += sum(abs(q) for q in args[0].q_full)

    def _after_naive(self, args, result, dt):
        s = args[0]
        self.counters["hstar_naive.terms"] += s.n * s.d

    def _after_count(self, args, result, dt):
        self.counters["points_enumerated"] += result.count

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every loaded ehrsign module attribute that is a target."""
        hooks = {
            "polynomials.mul": self._after_mul,
            "signpattern.construct": self._after_construct,
            "signpattern.verify_expr": self._after_verify,
            "delta.hstar_fast": self._after_fast,
            "delta.hstar_naive": self._after_naive,
            "oracle.count_points": self._after_count,
        }
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "ehrsign" or k.startswith("ehrsign."))
        ]
        for name, (mod_name, attr) in TARGETS.items():
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            name_of = None
            if name == "delta.hstar_naive":
                name_of = lambda args: "delta.hstar_naive." + naive_path(args[0])  # noqa: E731
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    continue
                setattr(cls, meth, self._wrap(name, orig, name_of, hooks.get(name)))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig, name_of, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> tuple[dict, dict]:
    """(calls, self seconds) per span name; self = duration - child time."""
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for name, t0, t1, parent in spans:
        dur = t1 - t0
        calls[name] += 1
        own[name] += dur
        if parent >= 0:
            own[spans[parent][0]] -= dur
    return calls, own


def merge_counters(total: dict, part: dict) -> None:
    """Add counters, keeping maxima for '*_max' keys."""
    for key, value in part.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def layer_metrics(calls, own, counters, extra) -> dict:
    """Every per-layer metric, by name, as {name: (value, unit)}, from the
    merged output of self_times() and the work counters."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (max(own.get(name, 0.0), 0.0), "s")
    c = counters
    muls = calls.get("polynomials.mul", 0)
    out["polynomials.mul.coeff_products"] = (c.get("mul.coeff_products", 0), "count")
    out["polynomials.mul.fraction_share"] = (
        c.get("mul.fraction_products", 0) / muls if muls else 0.0,
        "ratio",
    )
    out["polynomials.mul.operand_bits_max"] = (c.get("mul.operand_bits_max", 0), "bits")
    verifies = calls.get("signpattern.verify_expr", 0)
    constructs = calls.get("signpattern.construct", 0)
    out["signpattern.verify_pass_ratio"] = (
        c.get("verify.passes", 0) / verifies if verifies else 0.0,
        "ratio",
    )
    out["signpattern.expansions_per_pattern"] = (
        calls.get("ehrhart.expr_ehrhart", 0) / constructs if constructs else 0.0,
        "ratio",
    )
    for case in CASES:
        out[f"signpattern.case.{case}.count"] = (c.get(f"case.{case}.count", 0), "count")
        out[f"signpattern.case.{case}.s"] = (c.get(f"case.{case}.s", 0.0), "s")
    out["delta.hstar_fast.breakpoints"] = (c.get("hstar_fast.breakpoints", 0), "count")
    out["delta.hstar_naive.terms"] = (c.get("hstar_naive.terms", 0), "count")
    out["oracle.points_enumerated"] = (c.get("points_enumerated", 0), "count")
    out.update(extra)
    return out
