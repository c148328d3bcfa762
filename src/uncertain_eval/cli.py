"""Command-line front end.

JSON results go to standard output, CSVs to files, diagnostics to standard
error. Exit codes: 0 success, 2 input/config error or an output that cannot
be written, 1 internal error or a standard output closed before the result
is written; test verdicts never affect exit codes. Every
file-writing command records a run manifest next to its outputs; re-running
with the manifest's settings reproduces the outputs byte for byte. A
population spec is parsed and recorded by the fields of the
``PopulationSpec`` dataclass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path

from . import __version__
from .barrier import barrier_distribution, distinguishability_test
from .errors import InputError
from .feedback import fit_uncertainty, pooled_sigma
from .io import (
    read_feedback,
    read_observations,
    read_predictions,
    write_feedback,
    write_observations,
    write_predictions,
    write_sample_dump,
)
from .metrics import McConfig, rmse_distribution
from .rng import check_real
from .simulate import PopulationSpec, check_draw_size, draw_trials, generate_population
from .strategies import check_strategy_request, run_strategy_comparison


def _write_manifest(
    path: Path, command: str, *, inputs: dict, config: dict, outputs: list, seed: int | None = None
) -> None:
    """Record one command invocation at ``path``, next to its outputs."""
    manifest = dict(
        command=command, inputs=inputs, config=config, seed=seed, tool_version=__version__,
        outputs=outputs,
    )
    try:
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _generate_seed() -> int:
    import secrets  # imported on use: most runs never need it

    return secrets.randbits(63)


def _parse_fallback(text: str) -> float | None:
    """The single-trial spread of ``zero`` | ``pooled`` | ``fixed:V``; None pools."""
    if text == "pooled":
        return None
    if text == "zero":
        return 0.0
    if not text.startswith("fixed:"):
        raise InputError(f"unknown sigma fallback {text!r}; expected zero, pooled or fixed:V")
    try:
        value = float(text.split(":", 1)[1])
    except ValueError as exc:
        raise InputError(f"bad fixed fallback value in {text!r}") from exc
    return check_real(value, "fixed sigma fallback", "be finite and >= 0")


def _cmd_fit(args: argparse.Namespace) -> int:
    fallback = _parse_fallback(args.fallback)
    obs = read_observations(args.obs)
    data = fit_uncertainty(obs, fallback)
    write_feedback(args.out, data)
    _write_manifest(
        Path(str(args.out) + ".manifest.json"),
        "fit",
        inputs={"obs": str(args.obs)},
        config={"fallback": args.fallback},
        outputs=[str(args.out)],
    )
    _log(f"wrote {args.out}")
    _print_json({"n": data.N, "pooled_sigma": pooled_sigma(data)})
    return 0


def _cmd_distinguish(args: argparse.Namespace) -> int:
    data = read_feedback(args.feedback)
    _print_json(distinguishability_test(args.s1, args.s2, barrier_distribution(data)))
    return 0


def _cmd_rmse_dist(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _generate_seed()
    cfg = McConfig(sample_count=args.samples, seed=seed, predictor_tau=args.tau)
    data = read_feedback(args.feedback)
    predictions = read_predictions(args.pred)
    dist = rmse_distribution(data, predictions, cfg)

    if args.dump is not None:
        write_sample_dump(args.dump, dist.samples)
        _write_manifest(
            Path(str(args.dump) + ".manifest.json"),
            "rmse-dist",
            inputs={"feedback": str(args.feedback), "pred": str(args.pred)},
            config={"samples": args.samples, "tau": args.tau},
            seed=seed,
            outputs=[str(args.dump)],
        )
        _log(f"wrote {args.dump}")

    _print_json(
        {
            "mean": dist.mean,
            "variance": dist.variance,
            "sample_count": dist.sample_count,
            "seed": seed,
        }
    )
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    if args.obs is None and args.feedback is None:
        raise InputError("need --obs and/or --feedback")

    settings = dict(
        denoise_threshold=args.denoise_threshold,
        denoise_max_iterations=args.denoise_max_iterations,
        denoise_resampler=args.denoise_resampler,
        denoise_seed=args.denoise_seed,
        predictor_tau=args.tau,
        omit_alpha=args.omit_alpha,
    )
    check_strategy_request(**settings)
    if args.obs is None and args.denoise_threshold is not None:
        raise InputError("de-noising needs raw repeated-trial observations")

    observations = read_observations(args.obs) if args.obs is not None else None
    feedback = read_feedback(args.feedback) if args.feedback is not None else None
    predictions = read_predictions(args.pred)

    _print_json(
        run_strategy_comparison(
            predictions, observations=observations, data=feedback, **settings
        )
    )
    return 0


def _from_json(cls, raw: dict, name: str):
    """Build the dataclass ``cls`` from the JSON object ``raw`` by its declared fields.

    Fields without a default are required; a dataclass field is a nested object.
    A number field takes a JSON number (``null`` if it admits None), an ``int`` field no fraction.
    """
    declared = fields(cls)
    types = typing.get_type_hints(cls)
    names = [f.name for f in declared]
    for key in raw:
        if key not in names:
            raise InputError(f"unknown {name} field {key!r}")
    for f in declared:
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise InputError(f"{name} is missing required field {f.name!r}")
    values = {}
    for key in (key for key in names if key in raw):
        value, kind = raw[key], types[key]
        if is_dataclass(kind):
            if not isinstance(value, dict):
                raise InputError(f"{name} field {key!r} must be a JSON object")
            values[key] = _from_json(kind, value, key)
        elif value is None and type(None) in typing.get_args(kind):
            values[key] = None
        else:
            # ``float | None`` converts with its first member
            convert = (typing.get_args(kind) or (kind,))[0]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputError(f"bad spec value: {key} must be a number, got {json.dumps(value)}")
            if convert is int and isinstance(value, float) and value % 1 > 0:
                raise InputError(f"bad spec value: {key} must be an integer, got {value}")
            try:
                values[key] = convert(value)
            except (ValueError, OverflowError) as exc:
                raise InputError(f"bad spec value: {exc}") from exc
    return cls(**values)


def _load_population_spec(text: str) -> PopulationSpec:
    """Parse a population spec from inline JSON or a JSON file path.

    An omitted seed is generated here, so the spec always records one.
    """
    candidate = Path(text)
    if not text.lstrip().startswith("{"):
        if not candidate.is_file():
            raise InputError(f"spec file not found: {text}")
        text = candidate.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("spec must be a JSON object")
    if "seed" not in raw:
        raw["seed"] = _generate_seed()
    return _from_json(PopulationSpec, raw, "spec")


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_population_spec(args.spec)
    check_draw_size(spec.n_pairs, args.trials)

    truth, predictions = generate_population(spec)
    scale = spec.scale if args.discretise else None
    obs = draw_trials(truth, k=args.trials, seed=spec.seed, scale=scale)

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from exc
    obs_path = out_dir / "observations.csv"
    feedback_path = out_dir / "feedback.csv"
    pred_path = out_dir / "predictions.csv"

    write_observations(obs_path, obs)
    write_feedback(feedback_path, truth)
    write_predictions(pred_path, predictions)

    _write_manifest(
        out_dir / "manifest.json",
        "simulate",
        inputs={},
        config={
            # the seed is recorded once, at the manifest's top level
            "spec": {k: v for k, v in asdict(spec).items() if k != "seed"},
            "trials": args.trials,
            "discretise": args.discretise,
        },
        seed=spec.seed,
        outputs=[str(obs_path), str(feedback_path), str(pred_path)],
    )
    for path in (obs_path, feedback_path, pred_path):
        _log(f"wrote {path}")

    _print_json(
        {
            "pairs": truth.N,
            "trials": args.trials,
            "observation_rows": len(obs),
            "out_dir": str(out_dir),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncertain-eval",
        description=(
            "Evaluate accuracy metrics under human rating uncertainty: fit "
            "per-pair spreads, compute the metric noise floor, test score "
            "distinguishability, and compare uncertainty-handling strategies."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit per-pair (mu, sigma) from repeated trials")
    p.add_argument("--obs", required=True, help="observation CSV")
    p.add_argument(
        "--fallback",
        default="pooled",
        help="sigma for single-trial pairs: zero | pooled | fixed:V",
    )
    p.add_argument("--out", required=True, help="feedback CSV to write")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser(
        "distinguish", help="test whether two scores differ under the noise floor"
    )
    p.add_argument("--feedback", required=True, help="feedback CSV")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.set_defaults(handler=_cmd_distinguish)

    p = sub.add_parser(
        "rmse-dist", help="Monte Carlo distribution of RMSE under rating spread"
    )
    p.add_argument("--feedback", required=True, help="feedback CSV")
    p.add_argument("--pred", required=True, help="prediction CSV")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tau", type=float, default=None, help="prediction noise std")
    p.add_argument("--dump", default=None, help="optional sample dump CSV")
    p.set_defaults(handler=_cmd_rmse_dist)

    p = sub.add_parser(
        "strategies", help="run uncertainty-handling strategies and test the effect"
    )
    p.add_argument("--obs", default=None, help="observation CSV")
    p.add_argument("--feedback", default=None, help="feedback CSV")
    p.add_argument("--pred", required=True, help="prediction CSV")
    p.add_argument("--denoise-threshold", type=float, default=None)
    p.add_argument("--denoise-resampler", default="median", help="median | redraw")
    p.add_argument("--denoise-max-iterations", type=int, default=25)
    p.add_argument("--denoise-seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=None, help="prediction noise std")
    p.add_argument("--omit-alpha", type=float, default=None)
    p.set_defaults(handler=_cmd_strategies)

    p = sub.add_parser("simulate", help="generate a synthetic population and trials")
    p.add_argument(
        "--spec", required=True, help="population spec: JSON file path or inline JSON"
    )
    p.add_argument("--trials", type=int, default=5, help="trials per pair")
    p.add_argument("--discretise", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Run ``main`` and end the process with its exit code.

    The process ends through ``os._exit`` once the standard streams are
    flushed, so it does not pay for the interpreter's teardown. A stream
    that cannot be flushed, such as a closed pipe, makes a success exit 1.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
