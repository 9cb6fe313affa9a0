"""Paths, child processes, statistics and the environment record shared by
the orchestrator and the worker."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKER = BENCH_DIR / "worker.py"

# The console script `ehrsign = "ehrsign.cli:main"` runs exactly this.
CONSOLE_ENTRY = "import sys; from ehrsign.cli import main; sys.exit(main())"

CHILD_TIMEOUT_S = 150


def source_present() -> bool:
    return (SRC / "ehrsign" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args, env) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child interpreter to completion; (wall seconds, process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    return time.perf_counter() - t0, proc


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _dist_version(name: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ehrsign").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _dist_version("numpy"),
        "click": _dist_version("click"),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }
