"""Report assembly and machine-readable serialization.

Reports are plain dict trees.  Every float is rendered with 17 significant
digits ("%.17g", with fmt_float spelling NaN and the infinities) in both the
JSON and CSV writers, so the two formats carry identical numeric strings and
runs are byte-identical apart from the timestamp.
"""
from __future__ import annotations

import dataclasses
import enum
import io
import json
import math
from datetime import datetime, timezone
from itertools import chain

from .criteria import CriterionVerdict, DivergenceAssessment, EvidenceRow

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def _to_plain(obj):
    """Normalize dataclasses / enums / tuples into dicts, lists and scalars."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, CriterionVerdict):
        return verdict_to_dict(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    return obj


def verdict_to_dict(v: CriterionVerdict) -> dict:
    return {
        "criterion": v.criterion,
        "status": v.status.value,
        "holds": v.holds,
        "conclusion": v.conclusion,
        "probe": _to_plain(v.probe) if v.probe else None,
        "flags": list(v.flags),
        "evidence": [row._asdict() for row in v.evidence],
    }


def new_report(config_echo: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "seed": 0,  # no stage draws random numbers
        "config": config_echo,
        "stages": {},
        "discrepancy_flags": [],
        "errors": [],
    }


# json.dumps(s, ensure_ascii=False) without building an encoder per call
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def _write_json(out: io.StringIO, obj, indent: int):
    pad = "  " * indent
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, float):
        out.write(fmt_float(obj))
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, str):
        out.write(_json_string(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.write(pad + "  ")
            _write_json(out, str(k), 0)
            out.write(": ")
            _write_json(out, v, indent + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(obj):
            out.write(pad + "  ")
            _write_json(out, v, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(report: dict) -> str:
    out = io.StringIO()
    _write_json(out, _to_plain(report), 0)
    out.write("\n")
    return out.getvalue()


def _csv_cell(text: str) -> str:
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_number(x: float) -> str:
    return fmt_float(x).strip('"')


def _verdicts(report: dict) -> list:
    """Every verdict in the report: check stage, transform stage, example reproduction."""
    stages = report.get("stages", {})
    verdicts = list((stages.get("check") or {}).get("verdicts", []))
    sumq = (stages.get("transform") or {}).get("sumq_verdict")
    if sumq:
        verdicts.append(sumq)
    return verdicts + list(report.get("verdicts", []))


def _csv_column(values: list) -> list:
    """The CSV text of each cell, from one "%.17g" format over the column: that is
    fmt_float on finite floats, and a column with a finite sum holds no NaN or
    infinity (a sum that overflows only costs the per-cell spelling)."""
    if math.isfinite(sum(values)):
        return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
    return list(map(_csv_number, values))


def to_csv(report: dict) -> str:
    """Plot-ready CSV of criterion evidence, one line per sampled index.

    Each number column is formatted once, and a running value that is the partial
    sum reuses its text; a verdict's lines then come from one repeated template."""
    parts = ["criterion_id," + ",".join(EvidenceRow._fields) + "\n"]
    for verdict in _verdicts(report):
        ev = verdict.evidence
        partial = _csv_column(ev.partial_sum)
        running = partial if ev.running_value is ev.partial_sum else _csv_column(ev.running_value)
        cells = zip(ev.zeta, _csv_column(ev.term), partial, running)
        line = _csv_cell(verdict.criterion).replace("%", "%%") + ",%d,%s,%s,%s\n"
        parts.append(line * len(ev) % tuple(chain.from_iterable(cells)))
    return "".join(parts)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
