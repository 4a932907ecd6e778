"""Write every report of a fixed corpus of runs, for comparing two trees byte by byte.

    PYTHONPATH=<tree>/src python tools/report_corpus.py OUTDIR

The configs are those of tests/test_report_corpus.py.  On each it runs validate,
classify, check and transform in JSON and CSV, and check and transform in JSON and
CSV at --horizon 7 and 1000 (a CSV at 1000 rows spells each float column through the
writer's block path when every value is certified); on each with a [simulate]
section, simulate in JSON and CSV, and in JSON at --horizon 7 and 1000 (two of them
iterate to horizon 3000, past iterate's first block of 1024 steps).  It then runs example 1..3 in JSON and CSV,
in JSON at --horizon 1000, and example 1 at --lambda0 0.01.  Each report goes to its own file
in OUTDIR, without its generated_at line and with the exit code as a last line.
Run it once per tree, then compare the two directories:

    python tools/report_corpus.py --diff OLD NEW

lists each report that moved and whether it moved only in digits, with the largest
relative move of each field, or in a status, flag, method, certified flag, error,
exit code or other text; then, per config, the fields that moved in digits.
"""
from __future__ import annotations

import contextlib
import difflib
import importlib.util
import io
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _corpus_configs() -> dict:
    spec = importlib.util.spec_from_file_location(
        "test_report_corpus", ROOT / "tests" / "test_report_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


def runs(configs: dict) -> list:
    """(file name, the function giving the config's text or None, argv without --config and --out) per run."""
    out = []
    for name, build in configs.items():
        stem = re.sub(r"[^\w.-]", "_", name)
        for command in ("validate", "classify", "check", "transform"):
            for fmt in ("json", "csv"):
                out.append((f"{stem}.{command}.{fmt}", build, [command, "--format", fmt]))
        for command in ("check", "transform"):
            for horizon in ("7", "1000"):
                for fmt in ("json", "csv"):
                    out.append((f"{stem}.{command}.h{horizon}.{fmt}", build,
                                [command, "--format", fmt, "--horizon", horizon]))
        if "[simulate]" in build():
            for fmt in ("json", "csv"):
                out.append((f"{stem}.simulate.{fmt}", build, ["simulate", "--format", fmt]))
            for horizon in ("7", "1000"):
                out.append((f"{stem}.simulate.h{horizon}.json", build,
                            ["simulate", "--format", "json", "--horizon", horizon]))
    for n in ("1", "2", "3"):
        for fmt in ("json", "csv"):
            out.append((f"example{n}.{fmt}", None, ["example", n, "--format", fmt]))
        out.append((f"example{n}.h1000.json", None, ["example", n, "--horizon", "1000"]))
    out.append(("example1.lambda0-0.01.json", None, ["example", "1", "--lambda0", "0.01"]))
    return out


def main(outdir: str) -> int:
    from oscdelay.cli import main as cli_main

    target = pathlib.Path(outdir).resolve()
    target.mkdir(parents=True, exist_ok=True)
    plan = runs(_corpus_configs())
    if len({name for name, _, _ in plan}) != len(plan):
        raise SystemExit("two runs share a file name")
    # the report echoes its --out path: relative names keep it the same on every tree
    config, report = pathlib.Path("eq.ini"), pathlib.Path("report")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, build, argv in plan:
            if build is not None:
                config.write_text(build())
                argv = [argv[0], "--config", str(config), *argv[1:]]
            report.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main([*argv, "--out", str(report), "--quiet"])
            body = report.read_text() if report.exists() else ""
            kept = [line for line in body.splitlines(True) if '"generated_at"' not in line]
            (target / name).write_text("".join(kept) + f"exit {code}\n")
        os.chdir(ROOT)
    print(f"{len(plan)} reports written to {target}")
    return 0


# a number that is not part of a name such as Thm21 or h1000
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Infinity|NaN)(?![\w.])")
KEY = re.compile(r'^\s*"(\w+)":')
# the fields whose moves are not digits: each names its kind of move
KINDS = {"status": "status", "holds": "status", "flags": "flag", "discrepancy_flags": "flag",
         "method": "method", "certified": "certified flag", "error": "error", "errors": "error"}


def _fields(lines: list) -> list:
    """The field of each line: a JSON line's key, or the last key above it (an array
    item); a CSV row's column names, one per cell."""
    if lines and not lines[0].lstrip().startswith("{"):
        header = lines[0].rstrip("\n").split(",")
        return [header] * len(lines)
    out, key = [], ""
    for line in lines:
        m = KEY.match(line)
        key = m.group(1) if m else key
        out.append(key)
    return out


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (x != x and y != y):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale != float("inf") else float("inf")


def _line_ops(a: list, b: list) -> list:
    """difflib opcodes from a to b: the common head and tail pair line by line, and
    SequenceMatcher, quadratic in lines that repeat, reads only the middle between."""
    head = 0
    while head < min(len(a), len(b)) and a[head] == b[head]:
        head += 1
    tail = 0
    while tail < min(len(a), len(b)) - head and a[-1 - tail] == b[-1 - tail]:
        tail += 1
    ops = [("equal", 0, head, 0, head)]
    if head + tail < max(len(a), len(b)):
        middle = difflib.SequenceMatcher(None, a[head:len(a) - tail], b[head:len(b) - tail], autojunk=False)
        ops += [(op, i1 + head, i2 + head, j1 + head, j2 + head) for op, i1, i2, j1, j2 in middle.get_opcodes()]
    return ops + [("equal", len(a) - tail, len(a), len(b) - tail, len(b))]


def compare(old: str, new: str) -> tuple:
    """(kinds of move other than digits, {field: largest relative move in digits})."""
    a, b = old.splitlines(True), new.splitlines(True)
    kinds, moves = set(), {}
    if a[-1:] != b[-1:]:
        kinds.add("exit code")
        a, b = a[:-1], b[:-1]
    mask = [NUMBER.sub("#", line) for line in a], [NUMBER.sub("#", line) for line in b]
    fa, fb = _fields(a), _fields(b)
    for op, i1, i2, j1, j2 in _line_ops(*mask):
        if op == "equal":
            for i, j in zip(range(i1, i2), range(j1, j2)):
                xs, ys = NUMBER.findall(a[i]), NUMBER.findall(b[j])
                cells = fa[i] if isinstance(fa[i], list) else None
                for n, (x, y) in enumerate(zip(xs, ys)):
                    if x != y:
                        field = fa[i] if cells is None else _csv_column(cells, a[i], n)
                        moves[field] = max(moves.get(field, 0.0), _relative(x, y))
            continue
        for field in fa[i1:i2] + fb[j1:j2]:
            names = field if isinstance(field, list) else [field]
            kinds.update(KINDS.get(name, f"other text ({name})") for name in names)
    return kinds, moves


def _csv_column(header: list, line: str, n: int) -> str:
    """The column of the n-th number on a CSV row."""
    cells = line.rstrip("\n").split(",")
    numbered = [k for k, cell in enumerate(cells) if NUMBER.fullmatch(cell)]
    k = numbered[n] if n < len(numbered) else -1
    return header[k] if 0 <= k < len(header) else "?"


def diff(old_dir: str, new_dir: str) -> int:
    """Print each report that moved between two corpus directories and how; 0 when
    none moved in more than digits."""
    old, new = pathlib.Path(old_dir), pathlib.Path(new_dir)
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    per_config: dict = {}
    structural = 0
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            print(f"{name}: only in {new_dir if (new / name).exists() else old_dir}")
            structural += 1
            continue
        a, b = (old / name).read_text(), (new / name).read_text()
        if a == b:
            continue
        kinds, moves = compare(a, b)
        command = re.match(r"(.+?)\.(?:validate|classify|check|transform|simulate)\.", name)
        config = command.group(1) if command else name.split(".")[0]
        for field, rel in moves.items():
            per_config.setdefault(config, {})[field] = max(per_config.get(config, {}).get(field, 0.0), rel)
        digits = ", ".join(f"{field} {rel:.1e}" for field, rel in sorted(moves.items()))
        if kinds:
            structural += 1
            print(f"{name}: {', '.join(sorted(kinds))}" + (f"; digits: {digits}" if digits else ""))
        else:
            print(f"{name}: digits only: {digits}")
    print("largest relative move in digits, per config:")
    for config, moves in sorted(per_config.items()):
        print(f"  {config}: " + ", ".join(f"{field} {rel:.1e}" for field, rel in sorted(moves.items())))
    print(f"{structural} reports moved in more than digits")
    return 1 if structural else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
