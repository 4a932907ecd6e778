"""Command-line front end.

Subcommands: validate, classify, simulate, check, transform, example.
Exit codes: 0 success, 1 config error, 2 stage error, 3 internal error.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import traceback

from . import criteria
from .config import CheckConfig, OutputConfig, RunConfig, parse_config, parse_criteria
from .equation import classify_form, theta, validate
from .errors import ConfigError, OscDelayError, StageError
from .examples import reproduce_example
from .report import new_report, render
from .solver import classify_trajectory, iterate
from .transform import crit_canonical_sumq, to_canonical

STAGE_ORDER = ("validate", "classify", "simulate", "check", "transform")


def run_stages(cfg: RunConfig, stages) -> dict:
    """Execute the requested stages in pipeline order, recording per-stage errors."""
    report = new_report(cfg.echo())
    eq = cfg.equation
    wanted = [s for s in STAGE_ORDER if s in stages]

    def record_error(stage: str, exc: Exception):
        report["errors"].append({"stage": stage, "error": str(exc)})

    for stage in wanted:
        try:
            if stage == "validate":
                horizon = cfg.check.horizon if cfg.check else 100
                report["stages"]["validate"] = validate(eq, eq.zeta0 + horizon)
            elif stage == "classify":
                # classify_form reads the table theta(eq, zeta0) uses, and a tail
                # that fails the convergence screen is canonical
                form = classify_form(eq)
                report["stages"]["classify"] = {
                    "form": form,
                    "theta_at_start": None if form.value == "canonical" else theta(eq, eq.zeta0),
                }
            elif stage == "simulate":
                if cfg.simulate is None:
                    continue
                traj = iterate(eq, cfg.simulate.init, eq.zeta0 + cfg.simulate.horizon)
                classification = None
                if len(traj.x) >= len(traj.x) // 5 + 8:
                    classification = classify_trajectory(traj, tol=cfg.simulate.tol)
                step = max(1, len(traj.x) // 256)
                report["stages"]["simulate"] = {
                    "status": traj.status,
                    "start_index": traj.start_index,
                    "end_index": traj.end_index,
                    "classification": classification,
                    "samples": [
                        [traj.start_index + i, traj.x[i]] for i in range(0, len(traj.x), step)
                    ],
                }
            elif stage == "check":
                if cfg.check is None:
                    continue
                verdicts = []
                for cid in cfg.check.criteria:
                    try:
                        verdicts.append(criteria.evaluate_criterion(cid, eq, cfg.check.horizon))
                    except OscDelayError as exc:
                        record_error(f"check:{cid}", exc)
                report["stages"]["check"] = {"verdicts": verdicts}
            elif stage == "transform":
                if eq.delay_form.value != "delay_plus_one" or eq.alpha.value < 1:
                    continue
                horizon = cfg.check.horizon if cfg.check else 200
                ceq = to_canonical(eq, horizon)
                zs = list(range(eq.zeta0, eq.zeta0 + min(horizon, 50)))
                report["stages"]["transform"] = {
                    "sigma": ceq.sigma,
                    "zeta0": ceq.zeta0,
                    "r_tilde_samples": [[z, ceq.r(z)] for z in zs],
                    "q_tilde_samples": [[z, ceq.q(z)] for z in zs],
                    "sumq_verdict": crit_canonical_sumq(ceq, horizon),
                }
        except OscDelayError as exc:
            record_error(stage, exc)
    return report


def _emit(report: dict, fmt: str, out_path, quiet: bool) -> None:
    text = render(report, fmt)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        if not quiet:
            print(f"report written to {out_path}")
    elif not quiet:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscdelay",
        description="Oscillation analysis of second-order half-linear delay difference equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to an INI run configuration")
        p.add_argument("--horizon", type=int, default=None, help="override the stage horizon")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--quiet", action="store_true")

    for name, help_text in (
        ("validate", "check the coefficient hypotheses on a horizon"),
        ("classify", "canonical / non-canonical form classification"),
        ("simulate", "iterate the recurrence from the configured initial data"),
        ("check", "evaluate oscillation criteria"),
        ("transform", "build the canonical comparison equation and test it"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "check":
            p.add_argument(
                "--criterion",
                default=None,
                help="criterion id or 'all' (overrides the config)",
            )

    p = sub.add_parser("example", help="reproduce a built-in worked example")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.add_argument("--lambda0", type=float, default=2.0, help="example 1 coefficient scale")
    add_common(p, needs_config=False)
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "criterion", None) is not None:
        ids = parse_criteria(args.criterion)
        base = cfg.check or CheckConfig(criteria=ids)
        cfg = dataclasses.replace(cfg, check=dataclasses.replace(base, criteria=ids))
    if args.horizon is not None:
        if cfg.check:
            cfg = dataclasses.replace(cfg, check=dataclasses.replace(cfg.check, horizon=args.horizon))
        else:
            cfg = dataclasses.replace(
                cfg, check=CheckConfig(criteria=criteria.CRITERION_IDS, horizon=args.horizon)
            )
        if cfg.simulate:
            cfg = dataclasses.replace(
                cfg, simulate=dataclasses.replace(cfg.simulate, horizon=args.horizon)
            )
    out = cfg.output
    if args.format:
        out = OutputConfig(format=args.format, path=out.path)
    if args.out:
        out = OutputConfig(format=out.format, path=args.out)
    return dataclasses.replace(cfg, output=out)


_COMMAND_STAGES = {
    "validate": ("validate",),
    "classify": ("validate", "classify"),
    "simulate": ("validate", "simulate"),
    "check": ("validate", "check"),
    "transform": ("validate", "transform"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.horizon is not None and args.horizon < 1:
            raise ConfigError(f"--horizon must be at least 1, got {args.horizon}")
        if args.command == "example":
            if not math.isfinite(args.lambda0):
                raise ConfigError(f"--lambda0 must be finite, got {args.lambda0}")
            example = reproduce_example(args.number, lambda0=args.lambda0,
                                        horizon=args.horizon or 200)
            report = new_report({"example": args.number, "lambda0": args.lambda0})
            report["stages"]["example"] = example
            report["verdicts"] = example.pop("verdicts")
            report["discrepancy_flags"] = example.pop("discrepancy_flags")
            fmt = args.format or "json"
            _emit(report, fmt, args.out, args.quiet)
            return 0

        cfg = parse_config(args.config)
        cfg = _apply_overrides(cfg, args)
        report = run_stages(cfg, _COMMAND_STAGES[args.command])
        fmt = cfg.output.format
        _emit(report, fmt, cfg.output.path, args.quiet)
        return 2 if report["errors"] else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 2
    except OscDelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
