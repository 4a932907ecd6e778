"""Write every report of a fixed corpus of runs, for comparing two trees byte by byte.

    PYTHONPATH=<tree>/src python tools/report_corpus.py OUTDIR

The configs are those of tests/test_report_corpus.py.  On each it runs validate,
classify, check and transform in JSON and CSV, and check and transform in JSON at
--horizon 7 and 1000; on each with a [simulate] section, simulate in JSON and CSV,
and in JSON at --horizon 7 and 1000.  It then runs example 1..3 in JSON and CSV,
in JSON at --horizon 1000, and example 1 at --lambda0 0.01.  Each report goes to its own file
in OUTDIR, without its generated_at line and with the exit code as a last line.
Run it once per tree, then `diff -r` the two directories.
"""
from __future__ import annotations

import contextlib
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
                out.append((f"{stem}.{command}.h{horizon}.json", build,
                            [command, "--format", "json", "--horizon", horizon]))
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
