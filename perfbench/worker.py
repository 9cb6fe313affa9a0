"""Child process of the benchmark: runs one set-up probe, one timed phase of
`sweep` or `queries`, or one in-process CLI call, and writes its result as a
pickle to the path it is given.

Usage: python3 perfbench/worker.py '<json spec>'
"""

from __future__ import annotations

import contextlib
import itertools
import json
import pickle
import resource
import sys
import time
import traceback

import common
import speed

INTERLEAVE_BLOCK = 20


def _import_program():
    import ehrsign

    if not str(ehrsign.__file__).startswith(str(common.SRC)):
        raise SystemExit(f"ehrsign imported from {ehrsign.__file__}, not from {common.SRC}")
    return ehrsign


def _workload(name):
    if name == "sweep":
        import sweep

        return sweep
    import queries

    return queries


def _setup(mod, seed):
    if mod.__name__ == "sweep":
        mod.setup()
    else:
        mod.setup(seed)


def _ops(mod, seed, pass_index):
    if mod.__name__ == "sweep":
        return mod.patterns(seed, pass_index)
    return mod.ops(seed)


def _describe(op) -> str:
    if isinstance(op, tuple) and op and all(s in (1, -1) for s in op):
        return "".join("+" if s > 0 else "-" for s in op)
    return repr(op)


def _tracer(spec):
    """A Tracer for a traced spec, else None; tracing is imported only then."""
    if not spec["traced"]:
        return None
    import tracing

    return tracing.Tracer()


def _trace_result(tracer) -> dict:
    import tracing

    calls, own = tracing.self_times(tracer.spans)
    return {"calls": calls, "own": own, "counters": dict(tracer.counters), "spans": tracer.spans}


def timed_loop(execute, ops, deadline_s, meter):
    """Closed loop, one caller: each op starts when the previous one ends,
    with a probe of the machine's speed between ops now and then.
    Returns ([(op, result, wall seconds, error)], [(t0, t1)] of each op)."""
    records, spans = [], []
    t_start = time.perf_counter()
    for op in ops:
        if deadline_s and time.perf_counter() - t_start >= deadline_s:
            break
        meter.tick()
        t0 = time.perf_counter()
        try:
            result, error = execute(op), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"[:500]
        t1 = time.perf_counter()
        records.append((op, result, t1 - t0, error))
        spans.append((t0, t1))
    meter.probe()
    return records, spans


def interleaved_loop(execute, ops, deadline_s, tracer, meter):
    """Blocks of ops run untraced and then again traced, until the untraced
    wall time reaches deadline_s, so that machine drift hits both alike.
    Returns (records, op spans, traced flags), each in op order."""
    records, spans, traced, plain = [], [], [], 0.0
    while plain < deadline_s:
        block = list(itertools.islice(ops, INTERLEAVE_BLOCK))
        for on in (False, True):
            with tracer if on else contextlib.nullcontext():
                part, part_spans = timed_loop(execute, block, 0, meter)
            records += part
            spans += part_spans
            traced += [on] * len(part)
            if not on:
                plain += sum(t1 - t0 for t0, t1 in part_spans)
    return records, spans, traced


def phase(spec) -> dict:
    _import_program()
    mod = _workload(spec["workload"])
    _setup(mod, spec["seed"])
    setup_end = time.perf_counter()
    tracer = _tracer(spec)
    ops = _ops(mod, spec["seed"], spec["pass"])
    meter = speed.Meter(speed.COMPUTE)
    traced = None
    if spec["traced"] == "interleaved":
        records, spans, traced = interleaved_loop(
            mod.execute, ops, spec["deadline"], tracer, meter
        )
    else:
        with tracer or contextlib.nullcontext():
            records, spans = timed_loop(mod.execute, ops, spec["deadline"], meter)
    reference = [meter.reference(t0, t1) for t0, t1 in spans]

    out = {
        "setup_end": setup_end,
        "elapsed": sum(reference),
        "elapsed_wall": sum(dt for _, _, dt, _ in records),
        "traced_elapsed": None,
        "latencies": [ref for ref, (_, _, _, err) in zip(reference, records) if err is None],
        "latencies_wall": [dt for _, _, dt, err in records if err is None],
        "probe_s": meter.median_probe_s(),
        "attempted": len(records),
        "failures": [(_describe(op), err) for op, _, _, err in records if err is not None],
        "wrong": [],
        "extra": {},
    }
    if traced is not None:
        out["elapsed"] = sum(r for r, on in zip(reference, traced) if not on)
        out["traced_elapsed"] = sum(r for r, on in zip(reference, traced) if on)
    known = {}
    if spec.get("known"):
        with open(spec["known"], "rb") as fh:
            known = pickle.load(fh)
    if mod.__name__ == "sweep":
        out["digests"] = {op: mod.digest(r) for op, r, _, err in records if err is None}
    for op, result, _, err in records:
        if err is None:
            # A sweep witness identical to one checked in an earlier pass of
            # this run needs no second re-expansion.
            if known and known.get(op) == out["digests"][op]:
                continue
            problem = mod.check(op, result)
            if problem:
                out["wrong"].append((_describe(op), problem))
    if mod.__name__ == "sweep":
        out["extra"]["witness_bits_max"] = max(
            (mod.witness_bits(r.expr) for _, r, _, err in records if err is None), default=0
        )
    if tracer is not None:
        out.update(_trace_result(tracer))
    return out


def cli_call(spec) -> dict:
    """One CLI call in-process through ehrsign.cli:main, timed without the
    interpreter start and the import."""
    _import_program()
    from ehrsign import cli

    tracer = _tracer(spec)
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except Exception:  # the console script would print this and exit 1
            traceback.print_exc()
            rc = 1
        command_s = time.perf_counter() - t0
    sys.stdout.flush()
    out = {"rc": rc, "command_s": command_s}
    if tracer is not None:
        out.update(_trace_result(tracer))
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    role = spec["role"]
    if role == "setup":
        _import_program()
        _setup(_workload(spec["workload"]), spec["seed"])
        out = {"setup_end": time.perf_counter()}
    elif role == "phase":
        out = phase(spec)
    elif role == "cli":
        out = cli_call(spec)
    else:
        raise SystemExit(f"unknown role {role!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["out"], "wb") as fh:
        pickle.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
