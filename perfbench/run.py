"""The ehrsign benchmark: one closed-loop workload per run, outputs checked
exactly, end-to-end metrics (untraced) or per-layer metrics (traced).

Usage:
    python3 perfbench/run.py --workload sweep|queries|cli|all --seed N \
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every output checked right, 1 when a checker found a wrong output, and 2
when the benchmark could not run (no ehrsign sources next to it, or a
child process of its own crashed).  See README.md in this directory for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import resource
import signal
import subprocess
import sys
import time

import cliload
import common
import speed
import tracing

WORKLOADS = ("sweep", "queries", "cli")
SETUP_PROBES = 8  # set-ups per untraced run, spread over its duration
IMPORT_PROBES = 5
PROBES_PER_GAP = 2  # spawn probes (see speed.py) between two child processes


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


class Run:
    """What one workload run measured and checked."""

    def __init__(self):
        # Times in reference seconds (see speed.py), and the same in wall seconds.
        self.latencies: list[float] = []
        self.elapsed = 0.0
        self.latencies_wall: list[float] = []
        self.elapsed_wall = 0.0
        self.probe_s: dict[str, list[float]] = {"compute": [], "spawn": []}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.wrong: list[tuple[str, str]] = []
        self.peak_rss_mb = 0.0
        self.witness_bits_max = 0
        self.setup_samples: list[float] = []
        self.setup_samples_wall: list[float] = []
        # traced runs only
        self.calls: dict = {}
        self.own: dict = {}
        self.counters: dict = {}
        self.spans: list = []
        self.layer_extra: dict = {}

    def add_phase(self, res: dict) -> None:
        self.latencies += res["latencies"]
        self.elapsed += res["elapsed"]
        self.latencies_wall += res["latencies_wall"]
        self.elapsed_wall += res["elapsed_wall"]
        self.probe_s["compute"].append(res["probe_s"])
        self.attempted += res["attempted"]
        self.failures += res["failures"]
        self.wrong += res["wrong"]
        self.peak_rss_mb = max(self.peak_rss_mb, res["peak_rss_mb"])
        self.witness_bits_max = max(
            self.witness_bits_max, res["extra"].get("witness_bits_max", 0)
        )
        self.add_trace(res)

    def add_trace(self, res: dict) -> None:
        if "calls" not in res:
            return
        for key, value in res["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + value
        for key, value in res["own"].items():
            self.own[key] = self.own.get(key, 0.0) + value
        tracing.merge_counters(self.counters, res["counters"])
        offset = len(self.spans)
        self.spans += [
            (name, t0, t1, parent + offset if parent >= 0 else -1)
            for name, t0, t1, parent in res["spans"]
        ]


# --- child processes ----------------------------------------------------------


def worker(spec: dict, env: dict) -> dict:
    """Run perfbench/worker.py with `spec`; its pickled result plus timings."""
    out = common.OUT_DIR / f"worker-{os.getpid()}.pkl"
    spec = dict(spec, out=str(out))
    spawn = time.perf_counter()
    wall, proc = common.run_child([str(common.WORKER), json.dumps(spec)], env)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(
            f"worker {spec['role']} exited {proc.returncode}: "
            + proc.stderr.decode(errors="replace")[-2000:]
        )
    with open(out, "rb") as fh:
        res = pickle.load(fh)
    out.unlink()
    res.update(spawn=spawn, wall=wall, stdout=proc.stdout, stderr=proc.stderr)
    return res


def setup_sample(workload: str, seed: int, env: dict, run: Run, meter: speed.Meter) -> None:
    """Time one set-up from process start to its end, between spawn probes,
    and add it to `run`.  For `cli` a set-up is a process that only imports
    ehrsign.cli, timed to its exit."""
    meter.probe(PROBES_PER_GAP)
    if workload == "cli":
        wall, proc = common.run_child(["-c", "import ehrsign.cli"], env)
        if proc.returncode != 0:
            raise BenchError(proc.stderr.decode(errors="replace")[-2000:])
        t1 = time.perf_counter()
        t0 = t1 - wall
    else:
        res = worker({"role": "setup", "workload": workload, "seed": seed}, env)
        t0, t1 = res["spawn"], res["setup_end"]
    meter.probe(PROBES_PER_GAP)
    run.setup_samples.append(meter.reference(t0, t1))
    run.setup_samples_wall.append(t1 - t0)


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def numpy_import_s(stderr: str) -> float:
    """Cumulative import time of numpy from `-X importtime` output; 0 when
    numpy was not imported."""
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(4) == "numpy":
            return int(m.group(2)) / 1e6
    return 0.0


def import_probes(env: dict) -> dict:
    """cli.interpreter_s, cli.import_s and cli.import_numpy_s (medians)."""
    bare, full, numpy = [], [], []
    for _ in range(IMPORT_PROBES):
        bare.append(common.run_child(["-c", "pass"], env)[0])
        full.append(common.run_child(["-c", "import ehrsign.cli"], env)[0])
        _, proc = common.run_child(["-X", "importtime", "-c", "import ehrsign.cli"], env)
        numpy.append(numpy_import_s(proc.stderr.decode(errors="replace")))
    interpreter = common.median(bare)
    return {
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (common.median(full) - interpreter, "s"),
        "cli.import_numpy_s": (common.median(numpy), "s"),
    }


# --- workloads ----------------------------------------------------------------


def phase_spec(workload, seed, pass_index=0, deadline=0.0, traced=False):
    return {
        "role": "phase",
        "workload": workload,
        "seed": seed,
        "pass": pass_index,
        "deadline": deadline,
        "traced": traced,
    }


def run_sweep(seed: int, seconds: int, trace: bool, env: dict, meter: speed.Meter) -> Run:
    """Whole passes (8190 constructs each, fresh process), as many as bring
    the timed wall time nearest to `seconds`; traced: one pass untraced, the
    same pass traced."""
    run = Run()
    if trace:
        base = worker(phase_spec("sweep", seed), env)
        traced = worker(phase_spec("sweep", seed, traced=True), env)
        run.add_phase(base)
        run.add_phase(traced)
        run.layer_extra["trace.overhead_frac"] = (traced["elapsed"] / base["elapsed"] - 1, "ratio")
        return run
    known = common.OUT_DIR / f"digests-{os.getpid()}.pkl"
    pass_index, last_pass = 0, 0.0
    try:
        while pass_index == 0 or run.elapsed_wall + last_pass / 2 < seconds:
            spec = phase_spec("sweep", seed, pass_index)
            pass_index += 1
            if known.exists():
                spec["known"] = str(known)
            res = worker(spec, env)
            run.add_phase(res)
            last_pass = res["elapsed_wall"]
            if not known.exists():
                with open(known, "wb") as fh:
                    pickle.dump(res["digests"], fh)
            for _ in range(3):
                setup_sample("sweep", seed, env, run, meter)
    finally:
        known.unlink(missing_ok=True)
    return run


def run_queries(seed: int, seconds: int, trace: bool, env: dict, meter: speed.Meter) -> Run:
    """One process, one caller, `seconds` of queries; traced: blocks of ops
    run untraced and then traced, half the time each."""
    run = Run()
    if not trace:
        for _ in range(SETUP_PROBES // 2):
            setup_sample("queries", seed, env, run, meter)
        run.add_phase(worker(phase_spec("queries", seed, deadline=seconds), env))
        for _ in range(SETUP_PROBES // 2):
            setup_sample("queries", seed, env, run, meter)
        return run
    res = worker(phase_spec("queries", seed, deadline=seconds / 2, traced="interleaved"), env)
    run.add_phase(res)
    run.layer_extra["trace.overhead_frac"] = (res["traced_elapsed"] / res["elapsed"] - 1, "ratio")
    return run


def _cli_outcome(run: Run, op, rc: int, stdout: bytes, stderr: bytes) -> None:
    kind, argv = op
    text = stdout.decode(errors="replace")
    if rc != 0:
        last = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        run.failures.append((f"ehrsign {' '.join(argv)}", f"exit {rc}: {last[0][:300]}"))
        if "MISMATCH" in text:
            run.wrong.append((f"ehrsign {' '.join(argv)}", "verify printed a mismatch"))
        return
    problem = cliload.check(op, text)
    if problem:
        run.wrong.append((f"ehrsign {' '.join(argv)}", problem))
    elif kind == "sign-construct":
        bits = cliload.witness_bits(json.loads(text)["expr"])
        run.witness_bits_max = max(run.witness_bits_max, bits)


def run_cli(seed: int, seconds: int, trace: bool, env: dict, meter: speed.Meter) -> Run:
    """One child interpreter at a time, each between spawn probes, until the
    calls' wall time reaches `seconds` at the end of a block of calls;
    traced: each call once untraced and once traced, in-process through
    main().  Outputs are checked after the loop."""
    run = Run()
    outcomes = []  # (op, exit code, stdout, stderr)
    calls = []  # (t0, t1, exited 0) of each call
    base_cmd, traced_cmd = [], []
    for index, op in enumerate(cliload.ops(seed)):
        # Stop only at the end of a block, so that every kind is called
        # equally often.
        if index % len(cliload.KINDS) == 0 and index and run.elapsed_wall >= seconds:
            break
        if trace:
            for traced in (False, True):
                res = worker({"role": "cli", "argv": op[1], "traced": traced}, env)
                run.elapsed_wall += res["wall"]
                (traced_cmd if traced else base_cmd).append(res["command_s"])
                if traced:
                    run.add_trace(res)
                outcomes.append((op, res["rc"], res["stdout"], res["stderr"]))
            continue
        if index % (2 * len(cliload.KINDS)) == len(cliload.KINDS) - 1:
            setup_sample("cli", seed, env, run, meter)  # one every other block
        meter.probe(PROBES_PER_GAP)
        wall, proc = common.run_child(["-c", common.CONSOLE_ENTRY, *op[1]], env)
        t1 = time.perf_counter()
        run.elapsed_wall += wall
        calls.append((t1 - wall, t1, proc.returncode == 0))
        outcomes.append((op, proc.returncode, proc.stdout, proc.stderr))
    if not trace:
        meter.probe(PROBES_PER_GAP)
        run.elapsed = sum(meter.reference(t0, t1) for t0, t1, _ in calls)
        run.latencies = [meter.reference(t0, t1) for t0, t1, ok in calls if ok]
        run.latencies_wall = [t1 - t0 for t0, t1, ok in calls if ok]
    run.attempted = len(outcomes)
    for outcome in outcomes:
        _cli_outcome(run, *outcome)
    if trace:
        run.layer_extra["cli.command_s"] = (common.median(base_cmd), "s")
        run.layer_extra["trace.overhead_frac"] = (sum(traced_cmd) / sum(base_cmd) - 1, "ratio")
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return run


RUNNERS = {"sweep": run_sweep, "queries": run_queries, "cli": run_cli}


# --- reporting ----------------------------------------------------------------


def end_to_end(run: Run, wall: bool = False) -> dict:
    """The end-to-end metrics in reference seconds, or in wall seconds."""
    lat = run.latencies_wall if wall else run.latencies
    elapsed = run.elapsed_wall if wall else run.elapsed
    setups = run.setup_samples_wall if wall else run.setup_samples
    ms = sorted(x * 1000 for x in lat)
    return {
        "setup_s": (common.median(setups), "s"),
        "ops_per_s": (len(lat) / elapsed if elapsed else 0.0, "1/s"),
        "p50_ms": (common.median(ms), "ms"),
        "p90_ms": (common.p90(ms), "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: Run, env: dict) -> dict:
    extra = {
        "signpattern.witness_bits_max": (run.witness_bits_max, "bits"),
        "cli.command_s": (0.0, "s"),
        "trace.overhead_frac": (0.0, "ratio"),
    }
    extra.update(import_probes(env))
    extra.update(run.layer_extra)
    return tracing.layer_metrics(run.calls, run.own, run.counters, extra)


def write_spans(run: Run, workload: str) -> None:
    path = common.OUT_DIR / f"spans-{workload}.jsonl"
    with open(path, "w") as fh:
        for name, t0, t1, parent in run.spans:
            fh.write(json.dumps([name, t0, t1, parent]) + "\n")


def report(args, run: Run, metrics: dict, wall: dict | None, env_info: dict) -> dict:
    failed = len(run.failures)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env_info))
    for name, (value, unit) in metrics.items():
        line = f"  {name:<40} {value:.6g} {unit}"
        if wall and unit != "MB":
            line += f"  (wall: {wall[name][0]:.6g})"
        print(line)
    if not args.trace:
        print(
            f"  {'fail_frac':<40} {failed / run.attempted:.6g} ratio "
            f"({failed} of {run.attempted} ops)"
        )
        if args.workload != "queries":
            print(f"  {'witness_bits_max':<40} {run.witness_bits_max} bits")
        print(f"  ({len(run.latencies)} timed ops in {run.elapsed:.3f} reference s, "
              f"{run.elapsed_wall:.3f} wall s; {len(run.setup_samples)} set-ups; "
              "median probes (ms): " + ", ".join(
                  f"{kind} {1000 * common.median(v):.4g}" for kind, v in run.probe_s.items() if v
              ) + ")")
    for what, items in (("FAILED", run.failures), ("WRONG", run.wrong)):
        for op, message in items:
            line = f"{what} {op}: {message}"
            print(line)
            print(line, file=sys.stderr)
    return {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_one(args) -> int:
    env = common.child_env()
    meter = speed.Meter(speed.SPAWN)
    run = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), env, meter)
    wall = None
    if args.trace:
        metrics = per_layer(run, env)
        write_spans(run, args.workload)
    else:
        while len(run.setup_samples) < SETUP_PROBES:
            setup_sample(args.workload, args.seed, env, run, meter)
        metrics = end_to_end(run)
        wall = end_to_end(run, wall=True)
    if meter.seconds:
        run.probe_s["spawn"].append(meter.median_probe_s())
    env_info = common.environment(args.seed)
    result = report(args, run, metrics, wall, env_info)
    record = dict(
        result,
        wall_metrics=wall and {name: {"value": v, "unit": u} for name, (v, u) in wall.items()},
        probe_s=run.probe_s,
        env=env_info,
        failures=run.failures,
        wrong=run.wrong,
    )
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (common.OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh run.py process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: benchmark error (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        worst = max(worst, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so that subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    speed.pin_cpu()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not common.source_present():
        print(f"no ehrsign sources under {common.SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the checkers parse witnesses of any size
    common.OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
