"""Report assembly and machine-readable serialization.

Reports are plain dict trees.  Every float is rendered with 17 significant
digits ("%.17g", with fmt_float spelling NaN and the infinities) in both the
JSON and CSV writers, so the two formats carry identical numeric strings and
runs are byte-identical apart from the timestamp.  The CSV writer computes that
text for a whole float64 evidence column at once (`_float_block`), and a verdict with
a value it does not certify is written through "%" as JSON evidence is.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import io
import json
import math
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from .criteria import CriterionVerdict, Evidence, EvidenceRow, _python

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
    """The text of each value (an array's from one tolist): one "%.17g" format over a
    column of floats whose sum is finite (fmt_float's text, as it holds no NaN or
    infinity), else `cell` on each value (an overflowing sum costs the per-cell text)."""
    values = _python(values)
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


# The CSV writer spells a float column in one numpy pass: |x| = N·10^(k−16), with N the
# 17-digit rounding of |x|·10^(16−k), computed exactly (Steele & White) from Dekker's
# error-free product of |x| and 10^(16−k) = hi + lo.
_ROW = np.arange(17, dtype=np.int8)[:, None]


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one uint32."""
    return np.frombuffer("".join(map("{:04d}".format, range(10000))).encode(), np.uint32)


def _halves(a):
    """Veltkamp's split a = head + tail into 26-bit halves, whose products are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    head = c - (c - a)
    return head, a - head


@functools.cache
def _power_of_ten(p: int) -> tuple:
    """(hi, lo, hi's halves) with hi + lo = 10^p to about 2^-106 relative; lo = 0 for 0 <= p <= 22."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den  # an int division rounds correctly
    a, b = hi.as_integer_ratio()
    return (hi, (num * b - a * den) / (den * b), *_halves(hi))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """floor(a·10^p) and its rounding to an integer for p = 16 − k, and where that rounding
    is certain.

    a·hi is ph + pl exactly (Dekker's two-product), so where ph >= 2^53 the fraction
    t = (ph − ⌊ph⌋) + pl + a·lo is within about 1e-15, and exact where lo = 0; there a
    tie rounds half-even.  Ties exist past p = 22 too (3·2^-24 at p = 23), so elsewhere
    a rounding is certain only when t's fraction is more than 1e-9 from 1/2.  Where
    floor(a·10^p) does not have 17 digits, k is off by one and the caller redoes the row."""
    p = 16 - k
    first = int(p.min(initial=0))
    col = p - first
    table = np.zeros((4, int(col.max(initial=0)) + 1))
    for j in np.flatnonzero(np.bincount(col)).tolist():
        table[:, j] = _power_of_ten(j + first)
    hi, lo, bh, bl = np.take(table, col, axis=1)
    ph = a * hi
    ah, al = _halves(a)
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    whole = np.floor(ph)
    t = (ph - whole) + pl + a * lo
    t_whole = np.floor(t)
    frac = t - t_whole
    floor = whole.astype(np.int64) + t_whole.astype(np.int64)
    rounded = floor + ((frac > 0.5) | ((frac == 0.5) & (floor & 1 == 1)))
    return floor, rounded, (lo == 0) | (np.abs(frac - 0.5) > 1e-9)


def _divmod(v: np.ndarray, divisor: int) -> tuple:
    """(v // divisor, v % divisor) for v >= 0: numpy divides by a scalar fast, takes a remainder slowly."""
    quotient = v // divisor
    return quotient, v - quotient * divisor


def _float_block(x: np.ndarray) -> tuple:
    """The "%.17g" text of each value of a float64 column, as a column-major uint8 block
    (row j holds byte j of every value's text, NUL where a text has no byte there), and
    the mask of the values whose text it certifies: ±0, and each |x| in [1e-280, 1e280]
    whose rounding `_scaled` finds certain.

    Its rows, less those that hold no byte of any text: the sign; "0.000" for
    -4 <= k < 0; 18 slots for the 17 digits and the point; "e", the exponent's sign and
    up to three digits for k outside [-4, 17).  As "%g" does, trailing zeros and a point
    with no digit after it are dropped."""
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    ok = zero | ((a >= 1e-280) & (a <= 1e280))
    a[zero | ~ok] = 1.0  # a stand-in with a decimal exponent
    k = np.floor(np.log10(a)).astype(np.int64)
    floor, digits, certain = _scaled(a, k)
    # log10 may miss k = floor(log10 a) by one: redo those rows at k +- 1
    off = (floor >= 10 ** 17).astype(np.int64) - (floor < 10 ** 16)
    redo = np.flatnonzero(off)
    k[redo] += off[redo]
    _, digits[redo], certain[redo] = _scaled(a[redo], k[redo])
    carry = digits == 10 ** 17  # the rounding reached the next power of ten
    digits[carry] = 10 ** 16
    k += carry

    lead, rest = _divmod(digits, 10 ** 16)
    quads = np.stack(_divmod(np.stack(_divmod(rest, 10 ** 8)), 10 ** 4), axis=1).reshape(4, n)
    d = np.empty((17, n), np.uint8)
    d[0] = np.where(zero, 48, lead + 48)
    d[1:] = _quads()[quads].view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1).reshape(16, n)
    kept = ((d != 48) * (_ROW + 1)).max(axis=0)  # digits up to the last non-zero one

    fixed = (k >= -4) & (k < 17)
    # the digit the point follows: k in fixed notation, 0 in scientific, and -2 (none)
    # below 1, where the point is in the "0." rows
    m = np.where(fixed, np.where(k >= 0, k, -2), 0).astype(np.int8)
    out = np.zeros((29, n), np.uint8)
    out[0][np.signbit(x)] = 45
    i = np.flatnonzero(fixed & (k < 0))
    out[1, i], out[2, i] = 48, 46
    out[3:6, i] = np.where(k[i] <= np.array([[-2], [-3], [-4]]), 48, 0)
    slots = out[6:24]
    # digit j takes slot j + 1 when it follows the point, slot j up to it
    np.copyto(slots[1:], d, where=_ROW < kept)
    i = np.flatnonzero(m >= 0)
    slots[m[i] + 1, i] = np.where(kept[i] > m[i] + 1, 46, 0)
    np.copyto(slots[:17], d, where=_ROW <= m)
    i = np.flatnonzero(~fixed)
    e = np.abs(k[i])
    out[24, i] = 101
    out[25:, i] = (np.where(k[i] < 0, 45, 43), np.where(e >= 100, e // 100 + 48, 0),
                   e // 10 % 10 + 48, e % 10 + 48)
    return out[out.any(axis=1)], ok & certain


def _int_block(v: np.ndarray) -> np.ndarray:
    """The decimal text of an int64 column of magnitudes below 10^18, laid out as
    `_float_block` lays out its text."""
    a = np.abs(v)
    scale = 10 ** np.arange(len(str(a.max())) - 1, -1, -1, dtype=np.int64)[:, None]
    digits = np.where((a >= scale) | (scale == 1), a // scale % 10 + 48, 0)
    return np.vstack([np.where(v < 0, 45, 0), digits]).astype(np.uint8)


def _block_lines(ev: Evidence, prefix: str = "", zetas: dict | None = None):
    """The evidence's lines "prefix zeta,term,partial_sum,running_value\\n" as one text,
    from one block per column stacked and stripped of NULs; prefix, ASCII with no NUL,
    leads each line as constant rows; zetas keeps each range's block for the next
    verdict; a running value that is the partial sum reuses its block; a float64
    column is the block's input as it is.  None when a column cannot take the block:
    zeta not a range whose start, stop and step have fewer than 19 digits, a list
    column not all float, or a value that `_float_block` does not certify."""
    zeta = ev.zeta
    if (type(zeta) is not range or not zeta
            or max(map(abs, (zeta.start, zeta.stop, zeta.step))) >= 10 ** 18):
        return None
    columns = [ev.term, ev.partial_sum]
    if ev.running_value is not ev.partial_sum:
        columns.append(ev.running_value)
    blocks = []
    for column in columns:
        if not isinstance(column, np.ndarray) and not set(map(type, column)) <= {float}:
            return None
        block, certified = _float_block(np.asarray(column))
        if not certified.all():
            return None
        blocks.append(block)
    zetas = {} if zetas is None else zetas
    if zeta not in zetas:
        zetas[zeta] = _int_block(np.arange(zeta.start, zeta.stop, zeta.step))
    term, partial, running = blocks[0], blocks[1], blocks[-1]
    n = len(zeta)
    lead, comma, newline = (np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8)[:, None],
                                            (len(text), n)) for text in (prefix, ",", "\n"))
    stack = np.concatenate([lead, zetas[zeta], comma, term, comma, partial, comma, running, newline])
    return stack.T.tobytes().translate(None, b"\0").decode("ascii")


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

    A verdict's lines come from `_block_lines`; where that declines, each number
    column is formatted once, a running value that is the partial sum reusing its
    text, and the lines come from one repeated template."""
    parts = ["criterion_id," + ",".join(EvidenceRow._fields) + "\n"]
    zetas: dict = {}
    for verdict in _verdicts(report):
        ev = verdict.evidence
        cid = _csv_cell(verdict.criterion) + ","
        inline = cid.isascii() and "\0" not in cid
        lines = _block_lines(ev, cid if inline else "", zetas)
        if lines is not None:
            # any other id joins after the NUL strip, which would drop a NUL of its own
            parts.append(lines if inline else cid + lines.replace("\n", "\n" + cid)[:-len(cid)])
            continue
        cells = zip(ev.zeta, *_number_text(ev, _csv_number))
        line = cid.replace("%", "%%") + "%d,%s,%s,%s\n"
        parts.append(line * len(ev) % tuple(chain.from_iterable(cells)))
    return "".join(parts)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
