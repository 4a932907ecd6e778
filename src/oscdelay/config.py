"""Run configuration files.

Plain INI syntax: flat key = value lines under bracketed section headers.
Expressions are quoted strings in the package's expression language, e.g.

    [equation]
    r = "(z*(z-1))^(1/3)"
    q = "z^(4/3)"
    alpha = 1/3
    sigma = 1
    form = delay
    zeta0 = 2
    theta_closed_form = "1/(z-1)"

    [simulate]
    init = 1, 0.5, 0.25

    [check]
    criteria = all
    horizon = 200

    [output]
    format = json
    path = report.json
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

from . import criteria
from .equation import DelayForm, HalfLinearEquation
from .errors import ConfigError, LexError, ParseError
from .power import RationalExponent
from .sequences import Sequence
from .solver import ZERO_TOL, InitialData


@dataclass(frozen=True)
class CheckConfig:
    """The criteria and the horizon every stage reads: [zeta0, zeta0 + horizon]."""
    horizon: int = criteria.HORIZON
    criteria: tuple = criteria.CRITERION_IDS

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"check horizon must be at least 1, got {self.horizon}")


@dataclass(frozen=True)
class OutputConfig:
    format: str = "json"
    path: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    equation: HalfLinearEquation
    simulate: Optional[InitialData] = None  # the [simulate] init
    check: CheckConfig = field(default_factory=CheckConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def build_equation(self) -> HalfLinearEquation:
        return self.equation

    def echo(self) -> dict:
        eq = self.equation
        out = {
            "equation": {
                "r": eq.r.name,
                "q": eq.q.name,
                "alpha": str(eq.alpha),
                "sigma": eq.sigma,
                "form": eq.delay_form.value,
                "zeta0": eq.zeta0,
            }
        }
        if eq.theta_closed_form is not None:
            out["equation"]["theta_closed_form"] = eq.theta_closed_form.name
        if self.simulate:
            out["simulate"] = {"init": list(self.simulate.values)}
        out["check"] = {"criteria": list(self.check.criteria), "horizon": self.check.horizon}
        out["output"] = {"format": self.output.format, "path": self.output.path}
        return out


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def _get(section, key: str, kind, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r} in [{section.name}]")
    raw = section[key].strip()
    try:
        return kind(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r} in [{section.name}]: {exc}") from exc


def parse_criteria(raw: str) -> tuple:
    """'all' or a comma list of criterion ids; ConfigError on an empty list or unknown id."""
    known = criteria.CRITERION_IDS
    if raw.strip().lower() == "all":
        return known
    ids = tuple(c.strip() for c in raw.split(",") if c.strip())
    unknown = [c for c in ids if c not in known]
    if unknown or not ids:
        problem = f"unknown criteria {unknown}" if unknown else "empty criteria list"
        raise ConfigError(f"{problem}; known: {', '.join(known)}")
    return ids


def parse_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc

    if "equation" not in parser:
        raise ConfigError("missing [equation] section")
    sec = parser["equation"]
    try:
        alpha = RationalExponent.parse(_get(sec, "alpha", str))
    except ValueError as exc:
        raise ConfigError(f"bad alpha: {exc}") from exc
    form_text = _get(sec, "form", str)
    try:
        form = DelayForm(form_text)
    except ValueError:
        raise ConfigError(f"form must be 'delay' or 'delay_plus_one', got {form_text!r}") from None
    sigma = _get(sec, "sigma", int)

    def expression(key: str) -> Sequence:
        return Sequence.from_expression(_unquote(_get(sec, key, str)))

    try:
        equation = HalfLinearEquation(
            r=expression("r"), q=expression("q"), alpha=alpha, sigma=sigma, delay_form=form,
            zeta0=_get(sec, "zeta0", int),
            theta_closed_form=expression("theta_closed_form") if "theta_closed_form" in sec else None,
        )
    except (LexError, ParseError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    simulate = None
    if "simulate" in parser:
        sim = parser["simulate"]
        moved = {"horizon": "every stage reads the run's one horizon, [check] horizon or --horizon",
                 "tol": f"simulate classifies at the fixed tolerance solver.ZERO_TOL = {ZERO_TOL:g}"}
        for key in moved:
            if key in sim:
                raise ConfigError(f"[simulate] {key} is no longer read: {moved[key]}")
        values = [v for v in _get(sim, "init", str).split(",") if v.strip()]
        try:
            simulate = InitialData.for_equation(equation, values)
        except ValueError as exc:
            raise ConfigError(f"bad init list: {exc}") from exc

    check = CheckConfig()
    if "check" in parser:
        chk = parser["check"]
        check = CheckConfig(criteria=parse_criteria(_get(chk, "criteria", str)),
                            horizon=_get(chk, "horizon", int, check.horizon))

    output = OutputConfig()
    if "output" in parser:
        out = parser["output"]
        fmt = out.get("format", "json").strip().lower()
        if fmt not in ("json", "csv"):
            raise ConfigError(f"output format must be json or csv, got {fmt!r}")
        output = OutputConfig(format=fmt, path=_unquote(out.get("path", "")) or None)

    return RunConfig(equation=equation, simulate=simulate, check=check, output=output)
