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
    horizon = 60
    tol = 1e-6

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

_FORMS = {
    "delay": DelayForm.MINUS_SIGMA,
    "delay_plus_one": DelayForm.MINUS_SIGMA_PLUS_ONE,
}


@dataclass(frozen=True)
class SimulateConfig:
    init: tuple
    horizon: int
    tol: float = 1e-8

    def __post_init__(self):
        if self.horizon < 2:
            raise ConfigError(f"simulate horizon must be at least 2, got {self.horizon}")
        if not any(v != 0.0 for v in self.init):
            raise ConfigError("init must have a nonzero value")


@dataclass(frozen=True)
class CheckConfig:
    criteria: tuple
    horizon: int = 200

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"check horizon must be at least 1, got {self.horizon}")


@dataclass(frozen=True)
class OutputConfig:
    format: str = "json"
    path: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    r_text: str
    q_text: str
    alpha: RationalExponent
    sigma: int
    form: DelayForm
    zeta0: int
    theta_closed_form_text: Optional[str] = None
    simulate: Optional[SimulateConfig] = None
    check: Optional[CheckConfig] = None
    output: OutputConfig = field(default_factory=OutputConfig)

    def build_equation(self) -> HalfLinearEquation:
        theta_cf = None
        if self.theta_closed_form_text is not None:
            theta_cf = Sequence.from_expression(self.theta_closed_form_text)
        try:
            return HalfLinearEquation(
                r=Sequence.from_expression(self.r_text),
                q=Sequence.from_expression(self.q_text),
                alpha=self.alpha,
                sigma=self.sigma,
                delay_form=self.form,
                zeta0=self.zeta0,
                theta_closed_form=theta_cf,
            )
        except (LexError, ParseError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        out = {
            "equation": {
                "r": self.r_text,
                "q": self.q_text,
                "alpha": str(self.alpha),
                "sigma": self.sigma,
                "form": self.form.value,
                "zeta0": self.zeta0,
            }
        }
        if self.theta_closed_form_text is not None:
            out["equation"]["theta_closed_form"] = self.theta_closed_form_text
        if self.simulate:
            out["simulate"] = {
                "init": list(self.simulate.init),
                "horizon": self.simulate.horizon,
                "tol": self.simulate.tol,
            }
        if self.check:
            out["check"] = {
                "criteria": list(self.check.criteria),
                "horizon": self.check.horizon,
            }
        out["output"] = {"format": self.output.format, "path": self.output.path}
        return out


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def _get(section, key: str, kind, where: str, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r} in [{where}]")
    raw = section[key].strip()
    try:
        return kind(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r} in [{where}]: {exc}") from exc


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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc

    if "equation" not in parser:
        raise ConfigError("missing [equation] section")
    sec = parser["equation"]
    try:
        alpha = RationalExponent.parse(_get(sec, "alpha", str, "equation"))
    except ValueError as exc:
        raise ConfigError(f"bad alpha: {exc}") from exc
    form_text = _get(sec, "form", str, "equation")
    if form_text not in _FORMS:
        raise ConfigError(f"form must be 'delay' or 'delay_plus_one', got {form_text!r}")
    sigma = _get(sec, "sigma", int, "equation")
    form = _FORMS[form_text]
    if sigma < 0:
        raise ConfigError("sigma must be non-negative")
    if form is DelayForm.MINUS_SIGMA_PLUS_ONE and sigma < 1:
        raise ConfigError("form = delay_plus_one requires sigma >= 1")

    simulate = None
    if "simulate" in parser:
        sim = parser["simulate"]
        init_text = _get(sim, "init", str, "simulate")
        try:
            init = tuple(float(v) for v in init_text.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad init list: {exc}") from exc
        if len(init) != sigma + 2:
            raise ConfigError(
                f"init must list sigma + 2 = {sigma + 2} values, got {len(init)}"
            )
        simulate = SimulateConfig(
            init=init,
            horizon=_get(sim, "horizon", int, "simulate"),
            tol=_get(sim, "tol", float, "simulate", 1e-8),
        )

    check = None
    if "check" in parser:
        chk = parser["check"]
        check = CheckConfig(criteria=parse_criteria(_get(chk, "criteria", str, "check")),
                            horizon=_get(chk, "horizon", int, "check", 200))

    output = OutputConfig()
    if "output" in parser:
        out = parser["output"]
        fmt = out.get("format", "json").strip().lower()
        if fmt not in ("json", "csv"):
            raise ConfigError(f"output format must be json or csv, got {fmt!r}")
        output = OutputConfig(format=fmt, path=_unquote(out.get("path", "")) or None)

    return RunConfig(
        r_text=_unquote(_get(sec, "r", str, "equation")),
        q_text=_unquote(_get(sec, "q", str, "equation")),
        alpha=alpha,
        sigma=sigma,
        form=form,
        zeta0=_get(sec, "zeta0", int, "equation"),
        theta_closed_form_text=_unquote(sec["theta_closed_form"]) if "theta_closed_form" in sec else None,
        simulate=simulate,
        check=check,
        output=output,
    )
