"""End-to-end benchmark of the uncertain-eval CLI, with a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload fit-strategies-90k --seed 1 --seconds 40 --trace 0

The benchmark writes the workload's inputs from ``--seed`` with its own numpy
code (``workloads.py``), then runs the package's CLI as a user would: each
command is a fresh ``python -m uncertain_eval.cli`` process, and the next
starts only after the previous one has exited (a closed loop with a single
client). Every output is checked against an independent reference; a command
fails when it exits non-zero or a check fails.

``--trace 0`` reports the end-to-end metrics, measured on the children
through ``os.wait4``:

    setup_s      s    median wall time of a fresh ``import uncertain_eval.cli``
    wall_s       s    median wall time of one pass over the workload's commands
    cpu_s        s    median user + system CPU of those children
    peak_rss_mb  MiB  median over passes of the largest per-command max RSS

``error_rate`` (failed / attempted commands) is printed with them, and the
last line carries its base as ``attempted`` and ``failed``.

``--trace 1`` runs every command in-process instead, once untraced and once
with spans around each layer's public functions, and reports the per-layer
metrics (see ``tracing.py``). CONTRACT.md records why each workload exists,
which end-to-end metric each layer metric should move, and the numbers of
the commit that introduced the benchmark.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with the machine, versions, thread settings and input sizes, goes to
``.bench_work/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import sys
import time

from measure import ROOT, RUN_DEADLINE_S, SRC, measure, thread_env

WORK = ROOT / ".bench_work"


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code measured when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "uncertain_eval").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": thread_env(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    # Before numpy is imported, so the traced in-process run is pinned like the children.
    os.environ.update(thread_env())
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "uncertain_eval" / "cli.py").is_file():
        print(f"error: no package sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = run_dir / "work"
    workload = workloads.build(args.workload, args.seed, inputs_dir)
    generate_s = time.perf_counter() - started

    if args.trace:
        outcome = tracing.run(workload, inputs_dir, run_dir / "spans.jsonl", deadline)
    else:
        outcome = measure(workload, args.seconds, inputs_dir, deadline)
    shutil.rmtree(inputs_dir, ignore_errors=True)

    attempted, failed = outcome["attempted"], outcome["failed"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "claim": None,
        "environment": environment(),
        "inputs": workload.inputs,
        "generate_s": generate_s,
        "run_s": time.perf_counter() - started,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else None,
        "metrics": metrics,
        "detail": outcome["detail"],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} fraction ({failed}/{attempted} commands)")
    for failure in outcome["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
