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

from .criteria import CriterionVerdict, Evidence, EvidenceRow

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def _one_level(obj):
    """obj normalized one level down: an enum's value, a verdict or dataclass as a
    dict of its fields (a verdict keeps its Evidence), anything else as it is."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, CriterionVerdict):
        return {"criterion": obj.criterion, "status": obj.status, "holds": obj.holds,
                "conclusion": obj.conclusion, "probe": obj.probe, "flags": obj.flags,
                "evidence": obj.evidence}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return obj


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


def _json_scalar(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _json_string(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _column_text(values, cell) -> list:
    """The text of each value: one "%.17g" format over a column of floats whose sum
    is finite (fmt_float's text, as such a column holds no NaN or infinity), else
    `cell` on each value (a sum that overflows only costs the per-cell spelling)."""
    if set(map(type, values)) <= {float} and math.isfinite(sum(values)):
        return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
    return list(map(cell, values))


def _number_text(ev: Evidence, cell) -> tuple:
    """The text of the term, partial-sum and running-value columns, each formatted
    once; a running value that is the partial sum reuses the partial-sum text."""
    partial = _column_text(ev.partial_sum, cell)
    running = partial if ev.running_value is ev.partial_sum else _column_text(ev.running_value, cell)
    return _column_text(ev.term, cell), partial, running


def _write_evidence(out: io.StringIO, ev: Evidence, indent: int):
    """The evidence as a JSON list of objects keyed by EvidenceRow._fields, from its
    columns: each column formatted once, then one row template repeated per row."""
    if not len(ev):
        out.write("[]")
        return
    pad = "  " * (indent + 1)
    row = (pad + "{\n" + ",\n".join(f"{pad}  {_json_string(k)}: %s" for k in EvidenceRow._fields)
           + "\n" + pad + "}")
    # a range holds only ints, which "%s" writes as str(int) does
    zeta = ev.zeta if type(ev.zeta) is range else _column_text(ev.zeta, _json_scalar)
    cells = zip(zeta, *_number_text(ev, _json_scalar))
    out.write("[\n" + ",\n".join([row] * len(ev)) % tuple(chain.from_iterable(cells))
              + "\n" + "  " * indent + "]")


def _write_json(out: io.StringIO, obj, indent: int):
    """obj as indented JSON, each value normalized by _one_level as it is written."""
    obj = _one_level(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.write(pad + "  " + _json_string(str(k)) + ": ")
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
    elif isinstance(obj, Evidence):
        _write_evidence(out, obj, indent)
    else:
        out.write(_json_scalar(obj))


def to_json(report: dict) -> str:
    out = io.StringIO()
    _write_json(out, report, 0)
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


def to_csv(report: dict) -> str:
    """Plot-ready CSV of criterion evidence, one line per sampled index.

    Each number column is formatted once, and a running value that is the partial
    sum reuses its text; a verdict's lines then come from one repeated template."""
    parts = ["criterion_id," + ",".join(EvidenceRow._fields) + "\n"]
    for verdict in _verdicts(report):
        ev = verdict.evidence
        cells = zip(ev.zeta, *_number_text(ev, _csv_number))
        line = _csv_cell(verdict.criterion).replace("%", "%%") + ",%d,%s,%s,%s\n"
        parts.append(line * len(ev) % tuple(chain.from_iterable(cells)))
    return "".join(parts)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
