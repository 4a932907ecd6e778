"""Run configuration files.

Plain INI syntax: flat key = value lines under bracketed section headers.
Expressions are quoted strings.  SCHEMA lists every section and key; any other is refused:

    [equation]
    r = "(z*(z-1))^(1/3)"            ; required
    q = "z^(4/3)"                    ; required
    alpha = 1/3                      ; required
    sigma = 1                        ; required
    form = delay                     ; required: delay | delay_plus_one
    zeta0 = 2                        ; required
    theta_closed_form = "1/(z-1)"    ; optional

    [simulate]                       ; optional: simulate needs it
    init = 1, 0.5, 0.25              ; required: sigma + 2 values

    [check]
    criteria = all                   ; default all
    horizon = 200                    ; default 200, at least 1

    [output]
    format = json                    ; default json: json | csv
    path = report.json               ; default standard output
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from . import criteria
from .equation import DelayForm, HalfLinearEquation
from .errors import ConfigError, LexError, ParseError
from .power import RationalExponent
from .sequences import Sequence
from .solver import ZERO_TOL, InitialData

REQUIRED = object()  # a key's default: a section that is given must set it
OPTIONAL = object()  # a key's default: None, and echo() leaves the key out


@dataclass(frozen=True)
class CheckConfig:
    """The criteria and the horizon every stage reads: [zeta0, zeta0 + horizon]."""
    horizon: int
    criteria: tuple


@dataclass(frozen=True)
class OutputConfig:
    format: str
    path: Optional[str]


@dataclass(frozen=True)
class RunConfig:
    equation: HalfLinearEquation
    simulate: Optional[InitialData]  # the [simulate] init
    check: CheckConfig
    output: OutputConfig

    def build_equation(self) -> HalfLinearEquation:
        return self.equation

    def echo(self) -> dict:
        """The settings section by section, key by key, in SCHEMA's order."""
        out = {}
        for name, section in SCHEMA.items():
            if (value := getattr(self, name)) is not None:
                out[name] = {k: key.show(v) for k, key in section.keys.items()
                             if (v := getattr(value, key.attr or k)) is not None or key.default is not OPTIONAL}
        return out


@dataclass(frozen=True)
class Key:
    parse: Callable = str          # text, stripped and unquoted -> value; ValueError marks a bad value
    default: object = REQUIRED
    attr: Optional[str] = None     # the attribute that holds it, when not the key's name
    show: Callable = lambda v: v   # the value as echo() gives it
    choices: tuple = ()            # the texts it accepts, any case, when listed
    minimum: Optional[int] = None

    def read(self, text: str, where: str):
        text = text.strip()
        if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
            text = text[1:-1]
        if self.choices and text.lower() not in self.choices:
            raise ConfigError(f"{where} must be one of {', '.join(self.choices)}, got {text!r}")
        try:
            value = self.parse(text.lower() if self.choices else text)
        except (LexError, ParseError) as exc:
            raise ConfigError(str(exc)) from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {where}: {exc}") from exc
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(f"{where} must be at least {self.minimum}, got {value}")
        return value


@dataclass(frozen=True)
class Section:
    keys: dict                     # name -> Key, in echo order
    build: Callable                # (values by attribute, the sections built before) -> its value
    required: bool = False         # otherwise an absent section is None when a key is REQUIRED, else all defaults
    removed: dict = field(default_factory=dict)  # key -> where its setting lives now


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


SCHEMA = {
    "equation": Section(required=True, build=lambda values, built: HalfLinearEquation(**values), keys={
        "r": Key(Sequence.from_expression, show=attrgetter("name")),
        "q": Key(Sequence.from_expression, show=attrgetter("name")),
        "alpha": Key(RationalExponent.parse, show=str),
        "sigma": Key(int),
        "form": Key(DelayForm, attr="delay_form", show=attrgetter("value"), choices=tuple(f.value for f in DelayForm)),
        "zeta0": Key(int),
        "theta_closed_form": Key(Sequence.from_expression, OPTIONAL, show=attrgetter("name")),
    }),
    "simulate": Section(
        build=lambda values, built: InitialData.for_equation(built["equation"], values["values"]),
        keys={"init": Key(lambda text: tuple(float(v) for v in text.split(",") if v.strip()),
                          attr="values", show=list)},
        removed={"horizon": "every stage reads the run's one horizon, [check] horizon or --horizon",
                 "tol": f"simulate classifies at the fixed tolerance solver.ZERO_TOL = {ZERO_TOL:g}"}),
    "check": Section(build=lambda values, built: CheckConfig(**values), keys={
        "criteria": Key(parse_criteria, criteria.CRITERION_IDS, show=list),
        "horizon": Key(int, criteria.HORIZON, minimum=1),
    }),
    "output": Section(build=lambda values, built: OutputConfig(**values), keys={
        "format": Key(default="json", choices=("json", "csv")),
        "path": Key(lambda text: text or None, None),
    }),
}


def parse_config(path: str) -> RunConfig:
    # a default section no config can name: a [DEFAULT] header is an unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc

    for name in parser.sections():
        if name not in SCHEMA:
            raise ConfigError(f"unknown section [{name}]; known: {', '.join(f'[{s}]' for s in SCHEMA)}")
    built = {}
    for name, section in SCHEMA.items():
        given = parser[name] if name in parser else {}
        if name not in parser and section.required:
            raise ConfigError(f"missing [{name}] section")
        if name not in parser and any(key.default is REQUIRED for key in section.keys.values()):
            built[name] = None
            continue
        for k in given:
            if k not in section.keys:
                raise ConfigError(f"[{name}] {k} is no longer read: {section.removed[k]}" if k in section.removed
                                  else f"unknown key {k!r} in [{name}]; known: {', '.join(section.keys)}")
        values = {}
        for k, key in section.keys.items():
            if k not in given and key.default is REQUIRED:
                raise ConfigError(f"missing key {k!r} in [{name}]")
            default = None if key.default is OPTIONAL else key.default
            values[key.attr or k] = key.read(given[k], f"[{name}] {k}") if k in given else default
        try:
            built[name] = section.build(values, built)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return RunConfig(**built)
