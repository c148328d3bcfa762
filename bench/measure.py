"""Child processes of the end-to-end run, measured through ``os.wait4``.

Each command runs as a fresh ``python -m uncertain_eval.cli`` process and the
next starts only after it has exited: a closed loop with a single client.
``RUSAGE_CHILDREN`` would keep one high-water mark across all children, so
wall time, CPU and max RSS are taken per child from its own rusage.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Thread count the children's Monte Carlo pool may use; never above the cores.
MC_THREADS = min(2, os.cpu_count() or 1)
# Native thread pools stay at one thread so the children use no more cores
# than the Monte Carlo pool asks for.
NATIVE_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Fresh interpreters timed per run for setup_s: one before each command, so
# the samples spread over the run, and at least this many.
SETUP_MIN_SAMPLES = 5
# No command or pass starts after this many seconds of a run, and a command
# still running then is killed, so every run ends within three minutes.
RUN_DEADLINE_S = 165.0


def thread_env() -> dict[str, str]:
    env = {var: "1" for var in NATIVE_THREAD_VARS}
    env["UNCERTAIN_EVAL_THREADS"] = str(MC_THREADS)
    return env


def child_env() -> dict[str, str]:
    """Environment of every child: the package from this checkout, pinned threads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(thread_env())
    # Absolute, so it resolves from whatever directory a child runs in.
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Child:
    """Resource use of one finished child process, from ``os.wait4``."""

    exit_code: int
    wall_s: float
    cpu_s: float
    max_rss_mib: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, timeout: float) -> Child:
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "uncertain_eval.cli", *args]


def check_command(command, exit_code: int, stdout: str, stderr: str) -> list[str]:
    """Failure messages of one command; empty when it exited 0 and its checks hold."""
    if exit_code != 0:
        return [f"{command.name} exited {exit_code}: {stderr.strip()[-300:]}"]
    try:
        return command.check(stdout)
    except Exception as exc:  # a malformed output is a failed command, not a crash
        return [f"{command.name} output unreadable: {type(exc).__name__}: {exc}"]


def time_import(cwd: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter importing ``uncertain_eval.cli``."""
    child = run_child([sys.executable, "-c", "import uncertain_eval.cli"], cwd, deadline - time.perf_counter())
    if child.exit_code != 0:
        raise RuntimeError(f"import uncertain_eval.cli failed: {child.stderr.strip()[-300:]}")
    return child.wall_s


def measure(workload, seconds: int, cwd: Path, deadline: float) -> dict:
    """Closed-loop passes over the workload's commands for about ``seconds`` seconds.

    The first pass always runs; another starts only if, at the mean pass time
    so far, it would end within ``seconds``.
    """
    passes: list[dict] = []
    setup: list[float] = []
    attempted = failed = 0
    all_failures: list[str] = []
    measured = 0.0
    while not passes or (
        measured + measured / len(passes) <= seconds and time.perf_counter() < deadline
    ):
        children, failures = [], []
        for command in workload.commands:
            setup.append(time_import(cwd, deadline))
            child = run_child(cli_argv(command.args), cwd, deadline - time.perf_counter())
            attempted += 1
            errors = check_command(command, child.exit_code, child.stdout, child.stderr)
            failed += bool(errors)
            failures += errors
            children.append(child)
        wall = sum(c.wall_s for c in children)
        measured += wall
        passes.append(
            {
                "wall_s": wall,
                "cpu_s": sum(c.cpu_s for c in children),
                "peak_rss_mb": max(c.max_rss_mib for c in children),
                "commands": [
                    {"command": cmd.name, "exit_code": c.exit_code, "wall_s": c.wall_s,
                     "cpu_s": c.cpu_s, "max_rss_mib": c.max_rss_mib}
                    for cmd, c in zip(workload.commands, children)
                ],
                "failures": failures,
            }
        )
        all_failures += failures
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(time_import(cwd, deadline))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": all_failures,
        "detail": {"setup_samples_s": setup, "passes": passes},
    }
