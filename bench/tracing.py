"""Traced in-process run: per-layer spans and counts for one workload.

The layers are the modules of ``src/uncertain_eval/``; import cost is one
more layer, ``setup``. Spans are recorded from the benchmark's own code and
the package's modules are left untouched: ``instrument`` copies the
functions of each module into a private namespace in which every layer
function the module calls by name is a span-recording wrapper. Calling the
copied ``cli.main`` therefore runs the package's own code paths, and each
call into a layer's public function opens a span with its name, start, end,
parent and the command's trace id, plus counts taken at that boundary.

Every command of the workload runs twice in this process: once through the
real ``cli.main`` without spans, and once traced. ``trace.overhead_s`` is
the traced minus the untraced time of the same commands. Spans stay in
memory and are written as JSON lines when the run ends.

A layer metric reads 0 on a workload that never calls that layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import re
import statistics
import subprocess
import sys
import time
import types
from dataclasses import asdict, dataclass, field
from io import StringIO
from pathlib import Path

from measure import SRC, check_command, child_env

LAYER_FUNCTIONS = {
    "io": (
        "read_observations",
        "read_predictions",
        "read_feedback",
        "write_observations",
        "write_feedback",
        "write_predictions",
        "write_sample_dump",
    ),
    "feedback": ("fit_uncertainty", "pooled_sigma"),
    "barrier": ("barrier_distribution", "distinguishability_test"),
    "metrics": ("rmse", "rmse_distribution"),
    "strategies": ("denoise_preprocess", "omit_insignificant", "run_strategy_comparison"),
    "simulate": ("generate_population", "draw_trials"),
}
COMMANDS = ("fit", "distinguish", "rmse-dist", "strategies", "simulate")
IMPORT_REPEATS = 3


@dataclass
class Span:
    name: str
    trace_id: str
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = ""
        self._stack: list[Span] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self.trace_id, len(self.spans), parent, time.perf_counter() - self._origin)
        self.spans.append(span)
        self._stack.append(span)
        cpu = time.process_time()
        try:
            yield span
        finally:
            span.cpu_s = time.process_time() - cpu
            span.end = time.perf_counter() - self._origin
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover."""
        result = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                result[s.parent] -= s.duration
        return result

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# --------------------------------------------------------------------------
# Counts taken at the layer boundaries, after the span has closed


def _size(obj) -> int:
    return obj.N if hasattr(obj, "N") else len(obj)


def _count_read(span: Span, args, result) -> None:
    span.counts["rows"] = _size(result)
    span.counts["bytes_read"] = os.path.getsize(args[0])


def _count_write(span: Span, args, result) -> None:
    span.counts["rows"] = _size(args[1])
    span.counts["bytes_written"] = os.path.getsize(args[0])


def _count_fit(span: Span, args, result) -> None:
    span.counts["pairs"] = result.N
    span.counts["single_trial_pairs"] = sum(1 for e in result.entries if e.n_trials == 1)


def _count_denoise(span: Span, args, result) -> None:
    span.counts["unconverged"] = len(result.unconverged_keys)


def _count_omission(span: Span, args, result) -> None:
    span.counts["retained"] = len(result.retained_keys)


def _count_draw(span: Span, args, result) -> None:
    span.counts["rows"] = len(result)


def _count_mc(span: Span, args, result) -> None:
    from uncertain_eval.metrics import CHUNK_SIZE, resolve_thread_count

    cfg = args[2]
    pairs = args[0].N
    draws = 2 if cfg.predictor_tau is not None else 1
    span.counts["samples"] = result.sample_count
    span.counts["normals_drawn"] = result.sample_count * pairs * draws
    span.counts["threads"] = min(resolve_thread_count(), -(-cfg.sample_count // CHUNK_SIZE))


COUNTERS = {
    "io.read_observations": _count_read,
    "io.read_predictions": _count_read,
    "io.read_feedback": _count_read,
    "io.write_observations": _count_write,
    "io.write_feedback": _count_write,
    "io.write_predictions": _count_write,
    "io.write_sample_dump": _count_write,
    "feedback.fit_uncertainty": _count_fit,
    "strategies.denoise_preprocess": _count_denoise,
    "strategies.omit_insignificant": _count_omission,
    "simulate.draw_trials": _count_draw,
    "metrics.rmse_distribution": _count_mc,
}


# --------------------------------------------------------------------------
# Instrumentation


def _rebind(fn: types.FunctionType, namespace: dict) -> types.FunctionType:
    """Copy of ``fn`` that looks its global names up in ``namespace``."""
    copy = types.FunctionType(fn.__code__, namespace, fn.__name__, fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    copy.__qualname__ = fn.__qualname__
    copy.__doc__ = fn.__doc__
    return copy


def _wrap(tracer: Tracer, name: str, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if count is not None:
            count(span, args, result)
        return result

    return traced


def instrument(tracer: Tracer):
    """A ``cli.main`` whose calls into each layer's public functions open spans."""
    modules = [importlib.import_module(f"uncertain_eval.{m}") for m in (*LAYER_FUNCTIONS, "cli")]
    namespaces = {m: dict(vars(m)) for m in modules}
    for module, namespace in namespaces.items():
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                namespace[name] = _rebind(value, namespace)
    wrappers = {}
    for layer, names in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"uncertain_eval.{layer}")
        for name in names:
            wrappers[getattr(module, name)] = _wrap(tracer, f"{layer}.{name}", namespaces[module][name])
    for module, namespace in namespaces.items():
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value in wrappers:
                namespace[name] = wrappers[value]
    return namespaces[importlib.import_module("uncertain_eval.cli")]["main"]


def _call(main, args: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _threads(count: int):
    saved = os.environ.get("UNCERTAIN_EVAL_THREADS")
    os.environ["UNCERTAIN_EVAL_THREADS"] = str(count)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["UNCERTAIN_EVAL_THREADS"]
        else:
            os.environ["UNCERTAIN_EVAL_THREADS"] = saved


def _one_thread_mc_s(args: list[str]) -> float:
    """Wall time of the command's ``rmse_distribution`` call on one thread."""
    from uncertain_eval import cli, io, metrics

    ns = cli.build_parser().parse_args(args)
    data, predictions = io.read_feedback(ns.feedback), io.read_predictions(ns.pred)
    cfg = metrics.McConfig(sample_count=ns.samples, seed=ns.seed, predictor_tau=ns.tau)
    with _threads(1):
        start = time.perf_counter()
        metrics.rmse_distribution(data, predictions, cfg)
        return time.perf_counter() - start


# --------------------------------------------------------------------------
# Import cost


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_split(stderr: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` output spent in numpy, scipy and the package itself.

    Each module's own import time goes to the innermost enclosing import that
    belongs to one of the three, so the three shares partition the time and
    the package's share excludes the numpy and scipy imports it triggers.
    """
    entries = []  # (depth, self_us, name), each child listed before its parent
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((len(match.group(3)), int(match.group(1)), match.group(4)))
    shares = {"numpy": 0, "scipy": 0, "uncertain_eval": 0}
    ancestors: list[tuple[int, str | None]] = []  # (depth, owner), outermost first
    for depth, self_us, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        owner = top if top in shares else (ancestors[-1][1] if ancestors else None)
        if owner is not None:
            shares[owner] += self_us
        ancestors.append((depth, owner))
    return {k: v / 1e6 for k, v in shares.items()}


def measure_imports(cwd: Path) -> dict[str, float]:
    """Median import split of a fresh interpreter importing ``uncertain_eval.cli``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import uncertain_eval.cli"]
    splits = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import uncertain_eval.cli failed: {proc.stderr.strip()[-300:]}")
        splits.append(import_split(proc.stderr))
    return {k: statistics.median(s[k] for s in splits) for k in splits[0]}


# --------------------------------------------------------------------------
# The traced run


def run(workload, cwd: Path, spans_path: Path, deadline: float) -> dict:
    """Run the workload's commands in-process, untraced and traced, and sum the spans by layer."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from uncertain_eval import cli

    tracer = Tracer()
    traced_main = instrument(tracer)
    failures: list[str] = []
    attempted = failed = 0
    untraced_s = one_thread_s = 0.0
    roots: list[Span] = []

    def check(command, outcome: tuple[int, str, str]) -> None:
        nonlocal attempted, failed
        errors = check_command(command, *outcome)
        attempted += 1
        failed += bool(errors)
        failures.extend(errors)

    for index, command in enumerate(workload.commands):
        if time.perf_counter() > deadline:
            break
        start = time.perf_counter()
        outcome = _call(cli.main, command.args)
        untraced_s += time.perf_counter() - start
        check(command, outcome)

        tracer.trace_id = f"{workload.name}/{index}/{command.name}"
        with tracer.span(f"cli.{command.name}") as root:
            outcome = _call(traced_main, command.args)
        roots.append(root)
        check(command, outcome)
        if command.name == "rmse-dist":
            one_thread_s += _one_thread_mc_s(command.args)
    tracer.write(spans_path)

    metrics = {f"setup.import.{k}_s": (v, "s") for k, v in measure_imports(cwd).items()}
    metrics.update(_layer_metrics(tracer, workload, one_thread_s))
    metrics["trace.overhead_s"] = (sum(r.duration for r in roots) - untraced_s, "s")
    self_times = tracer.self_times()
    accounting = [
        {
            "trace_id": r.trace_id,
            "wall_s": r.duration,
            "layer_spans_s": sum(s.duration for s in tracer.spans if s.parent == r.span_id),
            "self_s": self_times[r.span_id],
        }
        for r in roots
    ]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "detail": {"untraced_s": untraced_s, "commands": accounting, "spans": str(spans_path)},
    }


def _layer_metrics(tracer: Tracer, workload, one_thread_s: float) -> dict[str, tuple[float, str]]:
    self_times = tracer.self_times()

    def spans(name: str) -> list[Span]:
        return [s for s in tracer.spans if s.name == name]

    def wall(name: str) -> float:
        return sum(s.duration for s in spans(name))

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans(name))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def timed(name: str) -> None:
        m[f"{name}.wall_s"] = (wall(name), "s")

    m: dict[str, tuple[float, str]] = {}
    io_spans = [s for s in tracer.spans if s.name.startswith("io.")]
    timed("io.read_observations")
    m["io.read_observations.rows"] = (count("io.read_observations", "rows"), "count")
    for name in LAYER_FUNCTIONS["io"][1:]:
        timed(f"io.{name}")
    m["io.bytes_read"] = (sum(s.counts.get("bytes_read", 0) for s in io_spans), "bytes")
    m["io.bytes_written"] = (sum(s.counts.get("bytes_written", 0) for s in io_spans), "bytes")

    pairs = count("feedback.fit_uncertainty", "pairs")
    single = count("feedback.fit_uncertainty", "single_trial_pairs")
    timed("feedback.fit_uncertainty")
    m["feedback.fit_uncertainty.pairs"] = (pairs, "count")
    m["feedback.fit_uncertainty.single_trial_pairs"] = (single, "count")
    m["feedback.fit_uncertainty.fallback_ratio"] = (ratio(single, pairs), "fraction")
    timed("feedback.pooled_sigma")

    timed("barrier.barrier_distribution")
    timed("barrier.distinguishability_test")

    mc = spans("metrics.rmse_distribution")
    mc_wall = wall("metrics.rmse_distribution")
    threads = max((s.counts["threads"] for s in mc), default=0)
    speedup = ratio(one_thread_s, mc_wall)
    timed("metrics.rmse")
    timed("metrics.rmse_distribution")
    m["metrics.rmse_distribution.cpu_s"] = (sum(s.cpu_s for s in mc), "s")
    m["metrics.rmse_distribution.threads"] = (threads, "count")
    m["metrics.rmse_distribution.normals_drawn"] = (count("metrics.rmse_distribution", "normals_drawn"), "count")
    m["metrics.rmse_distribution.speedup_vs_1thread"] = (speedup, "ratio")
    m["metrics.rmse_distribution.parallel_efficiency"] = (ratio(speedup, threads), "fraction")

    # Groups beyond the threshold are a property of the input; the checked
    # median-rule reference counts them.
    treated = workload.counts.get("groups_treated", 0) * len(spans("strategies.denoise_preprocess"))
    unconverged = count("strategies.denoise_preprocess", "unconverged")
    timed("strategies.denoise_preprocess")
    m["strategies.denoise_preprocess.groups_treated"] = (treated, "count")
    m["strategies.denoise_preprocess.unconverged"] = (unconverged, "count")
    m["strategies.denoise_preprocess.converged_ratio"] = (ratio(treated - unconverged, treated), "fraction")
    timed("strategies.omit_insignificant")
    m["strategies.omit_insignificant.retained"] = (count("strategies.omit_insignificant", "retained"), "count")
    timed("strategies.run_strategy_comparison")
    orchestration = spans("strategies.run_strategy_comparison")
    m["strategies.run_strategy_comparison.self_s"] = (sum(self_times[s.span_id] for s in orchestration), "s")

    timed("simulate.generate_population")
    timed("simulate.draw_trials")
    m["simulate.draw_trials.rows"] = (count("simulate.draw_trials", "rows"), "count")

    for command in COMMANDS:
        roots = spans(f"cli.{command}")
        m[f"cli.{command}.wall_s"] = (sum(s.duration for s in roots), "s")
        m[f"cli.{command}.self_s"] = (sum(self_times[s.span_id] for s in roots), "s")
    return m
