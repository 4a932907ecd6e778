"""Tests for run configuration parsing, report serialization and the CLI."""
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscdelay
from oscdelay.cli import main, run_stages
from oscdelay.config import parse_config, parse_criteria
from oscdelay.criteria import CRITERION_IDS, CriterionVerdict, EvidenceRow, VerdictStatus
from oscdelay.errors import ConfigError
from oscdelay.report import _to_plain, fmt_float, new_report, to_csv, to_json

EXAMPLE2_INI = """\
[equation]
r = "(z*(z-1))^(1/3)"
q = "z^(4/3)"
alpha = 1/3
sigma = 1
form = delay
zeta0 = 2
theta_closed_form = "1/(z-1)"

[check]
criteria = all
horizon = 150

[output]
format = json
"""

EXAMPLE3_INI = """\
[equation]
r = "(z*(z+1))^(5/3)"
q = "4*(z^2-1)*z^(2/3)/3"
alpha = 5/3
sigma = 2
form = delay_plus_one
zeta0 = 1
theta_closed_form = "1/z"

[simulate]
init = 1.0, 0.9, 0.8, 0.7
horizon = 40

[check]
criteria = Lem21
horizon = 120
"""


POLY_INI = """\
[equation]
r = "(z*(z+1.7))^(5/3)"
q = "2.2*(z^2-1)*z^(2/3)"
alpha = 5/3
sigma = 2
form = delay_plus_one
zeta0 = 1

[check]
criteria = all
horizon = 200
"""


@pytest.fixture
def ex2_config(tmp_path):
    path = tmp_path / "ex2.ini"
    path.write_text(EXAMPLE2_INI)
    return str(path)


@pytest.fixture
def ex3_config(tmp_path):
    path = tmp_path / "ex3.ini"
    path.write_text(EXAMPLE3_INI)
    return str(path)


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_round_trip(self, ex2_config):
        cfg = parse_config(ex2_config)
        assert cfg.equation.alpha.num == 1 and cfg.equation.alpha.den == 3
        assert cfg.equation.sigma == 1 and cfg.equation.zeta0 == 2
        assert cfg.check.horizon == 150
        eq = cfg.build_equation()
        assert eq.r(3) == pytest.approx(6.0 ** (1.0 / 3.0))

    def test_even_alpha_rejected(self, tmp_path):
        bad = EXAMPLE2_INI.replace("alpha = 1/3", "alpha = 2/3")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))

    def test_plus_one_needs_sigma(self, tmp_path):
        bad = EXAMPLE3_INI.replace("sigma = 2", "sigma = 0")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))

    def test_init_length_checked(self, tmp_path):
        bad = EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1.0, 0.9")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_criterion_rejected(self, tmp_path):
        bad = EXAMPLE2_INI.replace("criteria = all", "criteria = Thm99")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_criterion_message_lists_known_ids(self, tmp_path):
        bad = EXAMPLE2_INI.replace("criteria = all", "criteria = Lem21, Thm99")
        with pytest.raises(ConfigError, match=r"unknown criteria \['Thm99'\]; known: Thm21"):
            parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("listed", [",", " , ", ""])
    def test_empty_criteria_list_rejected(self, tmp_path, listed):
        bad = EXAMPLE2_INI.replace("criteria = all", f"criteria = {listed}")
        with pytest.raises(ConfigError, match="empty criteria list; known: Thm21"):
            parse_config(write_config(tmp_path, bad))

    def test_criteria_parser(self):
        assert parse_criteria(" all ") == CRITERION_IDS
        assert parse_criteria("ALL") == CRITERION_IDS
        assert parse_criteria(" Thm23 , Lem21,") == ("Thm23", "Lem21")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/run.ini")

    def test_bad_format_rejected(self, tmp_path):
        bad = EXAMPLE2_INI.replace("format = json", "format = xml")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))


class TestReportFormats:
    def test_fmt_float_17_digits(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(float("nan")) == '"NaN"'
        assert fmt_float(float("inf")) == '"Infinity"'

    def test_json_parses_and_has_schema(self, ex2_config):
        report = run_stages(parse_config(ex2_config), ("validate", "check"))
        data = json.loads(to_json(report))
        assert data["schema_version"] == 1
        assert "generated_at" in data
        verdicts = data["stages"]["check"]["verdicts"]
        assert any(v["criterion"] == "Thm22B" and v["holds"] for v in verdicts)

    def test_deterministic_except_timestamp(self, ex2_config):
        cfg = parse_config(ex2_config)
        a = run_stages(cfg, ("validate", "check"))
        b = run_stages(cfg, ("validate", "check"))
        ja = re.sub(r'"generated_at": "[^"]*"', '"generated_at": "T"', to_json(a))
        jb = re.sub(r'"generated_at": "[^"]*"', '"generated_at": "T"', to_json(b))
        assert ja == jb

    def test_csv_columns_and_numeric_strings_match_json(self, ex2_config):
        report = run_stages(parse_config(ex2_config), ("validate", "check"))
        csv_text = to_csv(report)
        json_text = to_json(report)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "criterion_id,zeta,term,partial_sum,running_value"
        assert len(lines) > 1
        for line in lines[1:50]:
            cells = line.split(",")
            # every numeric string in the CSV appears verbatim in the JSON
            for cell in cells[2:]:
                assert cell in json_text, cell


def csv_via_plain_dicts(report):
    """The CSV writer that formatted every row through _to_plain dicts, kept as the oracle."""
    def cell(value):
        text = fmt_float(value).strip('"') if isinstance(value, float) else str(value)
        if any(c in text for c in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text

    plain = _to_plain(report)
    stages = plain.get("stages", {})
    sources = list((stages.get("check") or {}).get("verdicts", []))
    if (stages.get("transform") or {}).get("sumq_verdict"):
        sources.append(stages["transform"]["sumq_verdict"])
    sources.extend(plain.get("verdicts", []))
    lines = ["criterion_id,zeta,term,partial_sum,running_value"]
    for verdict in sources:
        for row in verdict.get("evidence", []):
            lines.append(",".join([cell(verdict["criterion"]), cell(row["zeta"]),
                                   cell(float(row["term"])), cell(float(row["partial_sum"])),
                                   cell(float(row["running_value"]))]))
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    SPECIAL = (EvidenceRow(1, math.nan, math.inf, -math.inf), EvidenceRow(2, -0.0, 5e-324, 1.0 / 3.0))

    def _verdict(self, criterion):
        return CriterionVerdict(criterion, VerdictStatus.INCONCLUSIVE, "c", self.SPECIAL)

    def test_check_verdicts_match_oracle(self, ex2_config):
        report = run_stages(parse_config(ex2_config), ("validate", "check"))
        report["stages"]["check"]["verdicts"].append(self._verdict("Thm21"))
        report["stages"]["transform"] = {"sumq_verdict": self._verdict("CanonicalSumQ")}
        text = to_csv(report)
        assert "NaN,Infinity,-Infinity" in text
        assert text == csv_via_plain_dicts(report)

    def test_example_verdicts_match_oracle(self):
        report = new_report({"example": 1})
        example = oscdelay.reproduce_example(1, horizon=60)
        report["verdicts"] = example["verdicts"] + [self._verdict("a,\"quoted\" id")]
        text = to_csv(report)
        assert '"a,""quoted"" id",1,NaN,Infinity,-Infinity' in text
        assert text == csv_via_plain_dicts(report)

    # any float: the whole exponent range, +-0.0, subnormals, NaN and +-inf
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.builds(EvidenceRow, st.integers(), st.floats(), st.floats(), st.floats()),
                         max_size=8))
    @example(rows=[EvidenceRow(-(10 ** 30), 0.0, -0.0, 2.2250738585072009e-308),
                   EvidenceRow(2 ** 63, 1.7976931348623157e308, -5e-324, 1e-5)])
    def test_drawn_rows_match_oracle(self, rows):
        report = new_report({})
        report["verdicts"] = [CriterionVerdict("Thm21", VerdictStatus.INCONCLUSIVE, "c", tuple(rows))]
        assert to_csv(report) == csv_via_plain_dicts(report)

    def test_row_fields_name_json_keys_and_csv_columns(self):
        report = new_report({})
        report["verdicts"] = [self._verdict("Thm21")]
        evidence = json.loads(to_json(report))["verdicts"][0]["evidence"]
        assert [tuple(row) for row in evidence] == [EvidenceRow._fields] * len(self.SPECIAL)
        assert tuple(to_csv(report).split("\n")[0].split(",")[1:]) == EvidenceRow._fields


class TestCli:
    def test_check_exit_zero(self, ex2_config, capsys):
        assert main(["check", "--config", ex2_config, "--quiet"]) == 0

    def test_report_written(self, ex2_config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "--config", ex2_config, "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["stages"]["check"]["verdicts"]

    def test_csv_format_flag(self, ex2_config, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["check", "--config", ex2_config, "--format", "csv", "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert out.read_text().startswith("criterion_id,zeta,term,partial_sum,running_value")

    def test_criterion_override(self, ex2_config, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["check", "--config", ex2_config, "--criterion", "Thm22B",
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        verdicts = json.loads(out.read_text())["stages"]["check"]["verdicts"]
        assert [v["criterion"] for v in verdicts] == ["Thm22B"]

    @pytest.mark.parametrize("listed, message", [
        (" , ", "empty criteria list; known: Thm21, Thm22A, Thm22B, Lem21, Thm23"),
        ("", "empty criteria list; known: Thm21"),
        ("Thm21,Thm99", "unknown criteria ['Thm99']; known: Thm21"),
    ])
    def test_criterion_override_rejected(self, ex2_config, capsys, listed, message):
        assert main(["check", "--config", ex2_config, "--criterion", listed, "--quiet"]) == 1
        assert message in capsys.readouterr().err

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(EXAMPLE2_INI.replace("alpha = 1/3", "alpha = 2/3"))
        assert main(["check", "--config", str(path)]) == 1

    def test_non_decimal_digit_exit_one(self, tmp_path, capsys):
        path = tmp_path / "digit.ini"
        path.write_text(EXAMPLE2_INI.replace('q = "z^(4/3)"', 'q = "z^¹"'), encoding="utf-8")
        assert main(["validate", "--config", str(path), "--quiet"]) == 1
        assert "config error: lex error at offset 2" in capsys.readouterr().err

    def test_missing_config_exit_one(self):
        assert main(["validate", "--config", "/nonexistent.ini", "--quiet"]) == 1

    def test_overflowing_coefficient_exit_two(self, tmp_path):
        # 2^1024 overflows a float: a typed stage error (exit 2), not an internal one (3)
        path = write_config(tmp_path, EXAMPLE2_INI.replace('q = "z^(4/3)"', 'q = "2^z"')
                            .replace("criteria = all", "criteria = Lem21")
                            .replace("horizon = 150", "horizon = 1100"))
        out = tmp_path / "r.json"
        assert main(["check", "--config", path, "--out", str(out), "--quiet"]) == 2
        errors = json.loads(out.read_text())["errors"]
        assert [e["stage"] for e in errors] == ["check:Lem21"]
        assert "index 1024" in errors[0]["error"]

    def test_simulate_and_transform(self, ex3_config, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", ex3_config, "--out", str(out), "--quiet"]) == 0
        sim = json.loads(out.read_text())["stages"]["simulate"]
        assert sim["classification"]["kind"] == "oscillatory_witness"

        out2 = tmp_path / "tr.json"
        assert main(["transform", "--config", ex3_config, "--out", str(out2), "--quiet"]) == 0
        tr = json.loads(out2.read_text())["stages"]["transform"]
        assert tr["sumq_verdict"]["holds"]
        assert all(abs(v - 1.0) <= 1e-9 for _, v in tr["r_tilde_samples"])

    def test_classify(self, ex2_config, tmp_path):
        out = tmp_path / "cl.json"
        assert main(["classify", "--config", ex2_config, "--out", str(out), "--quiet"]) == 0
        cl = json.loads(out.read_text())["stages"]["classify"]
        assert cl["form"] == "non_canonical"

    def test_import_loads_no_config_parser(self):
        # the config module, and configparser with it, load only when a command reads a config
        src = os.path.dirname(os.path.dirname(oscdelay.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import oscdelay, sys; "
                "print([m for m in ('oscdelay.config', 'configparser') if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0 and done.stdout.strip() == "[]", done.stdout + done.stderr

    def test_coefficient_overflow_leaves_stderr_empty(self, tmp_path):
        # the tail pass runs past the index where 3*1.5^z overflows to inf
        path = write_config(tmp_path, EXAMPLE2_INI
                            .replace('r = "(z*(z-1))^(1/3)"', 'r = "3*pow(1.5, z)"')
                            .replace('theta_closed_form = "1/(z-1)"\n', ""))
        src = os.path.dirname(os.path.dirname(oscdelay.__file__))
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        command = [sys.executable, "-m", "oscdelay.cli", "classify", "--config", path, "--quiet"]
        done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""

    @pytest.mark.parametrize("argv, ini", [
        (["check", "--horizon", "0"], EXAMPLE3_INI),
        (["validate", "--horizon", "-3"], EXAMPLE3_INI),
        (["transform", "--horizon", "-3"], EXAMPLE3_INI),
        (["simulate", "--horizon", "1"], EXAMPLE3_INI),
        (["check"], EXAMPLE3_INI.replace("horizon = 120", "horizon = 0")),
        (["simulate"], EXAMPLE3_INI.replace("horizon = 40", "horizon = 1")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 0, 0, 0, 0")),
        (["check"], EXAMPLE3_INI.replace("horizon = 120", "horizon = abc")),
        (["simulate"], EXAMPLE3_INI.replace("horizon = 40", "horizon = 40\ntol = abc")),
        (["example", "1", "--horizon", "-1"], None),
        (["example", "2", "--horizon", "0"], None),
        (["check"], EXAMPLE3_INI.replace("sigma = 2", "sigma = -1")),
        (["check"], EXAMPLE3_INI.replace("form = delay_plus_one", "form = delay_minus_two")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = nan, 1, 1, 1")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1, inf, 1, 1")),
        (["classify"], EXAMPLE3_INI.replace('"1/z"', '"1/"')),
        (["simulate"], EXAMPLE3_INI.replace("horizon = 40", "horizon = 40\ntol = nan")),
        (["simulate"], EXAMPLE3_INI.replace("horizon = 40", "horizon = 40\ntol = inf")),
        (["simulate"], EXAMPLE3_INI.replace("horizon = 40", "horizon = 40\ntol = -1e-8")),
        (["example", "1", "--lambda0", "nan"], None),
        (["example", "1", "--lambda0", "inf"], None),
    ], ids=["check-horizon-0", "validate-horizon-neg", "transform-horizon-neg",
            "simulate-horizon-1", "check-section-horizon-0", "simulate-section-horizon-1",
            "zero-init", "check-section-horizon-text", "simulate-section-tol-text",
            "example1-horizon-neg", "example2-horizon-0", "negative-sigma", "unknown-form",
            "nan-init", "inf-init", "unparsable-theta-closed-form", "simulate-section-tol-nan",
            "simulate-section-tol-inf", "simulate-section-tol-neg", "example1-lambda0-nan",
            "example1-lambda0-inf"])
    def test_out_of_range_input_exit_one(self, tmp_path, capsys, argv, ini):
        if ini is not None:
            argv = argv + ["--config", write_config(tmp_path, ini)]
        assert main(argv + ["--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_example_horizon_short_of_sampled_index(self, tmp_path):
        # the Thm23 row at index 3 has no evidence at horizon 2: no computed value
        out = tmp_path / "ex1.json"
        assert main(["example", "1", "--horizon", "2", "--out", str(out), "--quiet"]) == 0
        rows = json.loads(out.read_text())["stages"]["example"]["comparison"]
        row = next(r for r in rows if r["quantity"] == "Thm23 running value at index 3")
        assert row["computed"] is None

    @pytest.mark.parametrize("command", ["check", "classify", "transform"])
    def test_disagreeing_closed_form_exit_two(self, tmp_path, command):
        path = write_config(tmp_path, EXAMPLE3_INI.replace('"1/z"', '"2/z"')
                            .replace("criteria = Lem21", "criteria = all"))
        out = tmp_path / "r.json"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 2
        errors = json.loads(out.read_text())["errors"]
        assert errors and all("lies outside" in e["error"] for e in errors)

    def test_simulate_quotient_overflow_exit_zero(self, tmp_path):
        # y / r(z+1) overflows long before r = 2^(-z) reaches zero
        path = write_config(tmp_path, EXAMPLE2_INI.replace('"(z*(z-1))^(1/3)"', '"1/2^z"')
                            .replace('"z^(4/3)"', '"1"').replace("alpha = 1/3", "alpha = 1")
                            .replace("zeta0 = 2", "zeta0 = 1")
                            .replace('theta_closed_form = "1/(z-1)"\n', "")
                            .replace("[check]", "[simulate]\ninit = 1, 0.5, 0.25\nhorizon = 1100\n\n[check]"))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["stages"]["simulate"]["status"]["kind"] == "overflowed"

    def test_simulate_first_difference_overflow_exit_zero(self, tmp_path):
        # x(2) - x(1) = 2e308 overflows before the first step
        path = write_config(tmp_path, '[equation]\nr = "1"\nq = "1"\nalpha = 1\nsigma = 1\n'
                            "form = delay\nzeta0 = 1\n\n[simulate]\ninit = 0, -1e308, 1e308\n"
                            "horizon = 30\n")
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
        sim = json.loads(out.read_text())["stages"]["simulate"]
        assert sim["status"] == {"kind": "overflowed", "at": 1}
        assert sim["end_index"] == 2

    def test_horizon_without_check_section_runs_every_criterion(self, tmp_path):
        path = write_config(tmp_path, EXAMPLE3_INI.split("[check]")[0])
        out = tmp_path / "chk.json"
        assert main(["check", "--config", path, "--horizon", "30", "--out", str(out),
                     "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["check"] == {"criteria": list(CRITERION_IDS), "horizon": 30}
        verdicts = data["stages"]["check"]["verdicts"]
        assert [v["criterion"] for v in verdicts] == list(CRITERION_IDS)
        assert all(len(v["evidence"]) == 30 for v in verdicts)

    def test_example_subcommand(self, tmp_path, capsys):
        out = tmp_path / "ex3.json"
        assert main(["example", "3", "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["discrepancy_flags"]
        assert any(v["criterion"] == "CanonicalSumQ" for v in data["verdicts"])

    def test_example_lambda0(self, tmp_path):
        out = tmp_path / "ex1.json"
        assert main(["example", "1", "--lambda0", "2.0", "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        holds = {v["criterion"]: v["holds"] for v in data["verdicts"]}
        assert holds["Thm21"] and holds["Thm23"]

    def test_negative_q_transform_exit_two(self, tmp_path):
        # q = 1 - z < 0 from z = 2 on gives q_tilde(2) < 0, which the sum test refuses
        path = write_config(tmp_path, EXAMPLE3_INI.replace('"(z*(z+1))^(5/3)"', '"2^z"')
                            .replace('"4*(z^2-1)*z^(2/3)/3"', '"1-z"')
                            .replace("alpha = 5/3", "alpha = 1")
                            .replace('theta_closed_form = "1/z"\n', ""))
        out = tmp_path / "t.json"
        assert main(["transform", "--config", path, "--out", str(out), "--quiet"]) == 2
        errors = json.loads(out.read_text())["errors"]
        assert errors == [{"stage": "transform",
                           "error": "q_tilde(2) = -0.25 < 0: the sum test needs non-negative terms"}]

    def test_classify_infinite_r_exit_two(self, tmp_path):
        # r(5) = 10^500 is inf: the tail pass fails where validate reports H1
        path = write_config(tmp_path, EXAMPLE2_INI.replace('"(z*(z-1))^(1/3)"', '"pow(10, z*100)"')
                            .replace("zeta0 = 2", "zeta0 = 5")
                            .replace('theta_closed_form = "1/(z-1)"\n', ""))
        out = tmp_path / "c.json"
        assert main(["classify", "--config", path, "--out", str(out), "--quiet"]) == 2
        data = json.loads(out.read_text())
        assert data["errors"] == [{"stage": "classify", "error": "r(5) is not finite"}]
        assert data["stages"]["validate"]["violations"][0]["index"] == 5

    def test_cancelling_expression_leaves_stderr_empty(self, tmp_path):
        # the tail pass reaches z = 1024, where 2^z - 2^z is inf - inf: a NaN column entry
        path = write_config(tmp_path, EXAMPLE2_INI.replace('"(z*(z-1))^(1/3)"', '"2^z - 2^z + 1"')
                            .replace('theta_closed_form = "1/(z-1)"\n', ""))
        src = os.path.dirname(os.path.dirname(oscdelay.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "oscdelay.cli", "classify", "--config", path, "--quiet"]
        done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode in (0, 2)
        assert "RuntimeWarning" not in done.stderr, done.stderr

    @pytest.mark.parametrize("r, sigma, horizon, error", [
        # theta(0) needs r(0) = 0 > 0
        ("z*(z+1)", 2, 200, "q_tilde not evaluable at 1: r(0) is not positive"),
        # r(309) = 10^309 overflows; validate reports H1 there
        ("10^z", 1, 400, "r_tilde not evaluable at 309: 10^z is not finite at index 309"),
    ], ids=["shifted-theta-below-domain", "r-overflows-in-horizon"])
    def test_transform_names_first_unevaluable_coefficient(self, tmp_path, r, sigma, horizon, error):
        path = write_config(tmp_path, f'[equation]\nr = "{r}"\nq = "1"\nalpha = 1\n'
                            f"sigma = {sigma}\nform = delay_plus_one\nzeta0 = 1\n")
        out = tmp_path / "t.json"
        argv = ["transform", "--config", path, "--horizon", str(horizon), "--out", str(out), "--quiet"]
        assert main(argv) == 2
        assert json.loads(out.read_text())["errors"] == [{"stage": "transform", "error": error}]

    def test_classify_divergent_tail_canonical(self, tmp_path):
        # r = 1: the tail terms never fall, so theta does not exist
        path = write_config(tmp_path, EXAMPLE2_INI.replace('"(z*(z-1))^(1/3)"', '"1"')
                            .replace('theta_closed_form = "1/(z-1)"\n', ""))
        out = tmp_path / "c.json"
        assert main(["classify", "--config", path, "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["stages"]["classify"] == {"form": "canonical", "theta_at_start": None}
        assert data["errors"] == []


def test_tail_terms_summed_once_per_equation(tmp_path, monkeypatch):
    """check then transform evaluate each tail term about once: the one tail
    pass (1 M terms) is shared, not repeated for each of the 201 indices."""
    from oscdelay import equation
    from oscdelay.equation import _tail_table

    points = []
    original = equation._inv_r_alpha

    def counting(r, alpha, s):
        points.append(len(s))
        return original(r, alpha, s)

    monkeypatch.setattr(equation, "_inv_r_alpha", counting)
    _tail_table.cache_clear()
    path = write_config(tmp_path, POLY_INI)
    for command in ("check", "transform"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 0
    assert sum(points) <= 1_100_000


# coefficients that are negative, zero, overflowing or have a pole somewhere; the
# form feed is whitespace to the tokenizer and must be escaped in the JSON report
FUZZ_R = ("1", "z", "2^z", "(z*(z+1))^(5/3)", "2^(-z)", "-1", "0", "1/(z-2)", "pow(10, z*100)",
          "z\x0c+1")
FUZZ_Q = ("1", "1/z", "1-z", "0", "1/(z-3)", "pow(10, z*100)")


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from(FUZZ_R), q=st.sampled_from(FUZZ_Q),
       alpha=st.sampled_from(("1", "1/3", "5/3")),
       form=st.sampled_from((("delay", 0), ("delay", 2), ("delay_plus_one", 1), ("delay_plus_one", 2))),
       zeta0=st.sampled_from((0, 1, 2)),
       init=st.none() | st.lists(st.sampled_from(("1", "nan", "inf", "-inf")),
                                 min_size=2, max_size=4).map(", ".join))
@example(r="2^z", q="1-z", alpha="1", form=("delay_plus_one", 2), zeta0=1, init=None)
# a non-finite initial value is a config error
@example(r="1", q="1", alpha="1", form=("delay", 1), zeta0=1, init="nan, 1, 1")
# the first difference overflows, and its cube overflows
@example(r="1", q="1", alpha="1", form=("delay", 1), zeta0=1, init="0, -1e308, 1e308")
@example(r="1", q="1", alpha="3", form=("delay", 1), zeta0=1, init="0, 1, 1e308")
# the config echo holds a form feed
@example(r="z\x0c+1", q="1", alpha="1", form=("delay", 1), zeta0=1, init=None)
def test_cli_never_exits_three(r, q, alpha, form, zeta0, init):
    """Every failure stays inside the OscDelayError hierarchy: exit 0, 1 or 2; every
    report written (exit 0 or 2) is valid JSON."""
    kind, sigma = form
    init = init or ", ".join(["1"] * (sigma + 2))
    text = (f'[equation]\nr = "{r}"\nq = "{q}"\nalpha = {alpha}\nsigma = {sigma}\n'
            f"form = {kind}\nzeta0 = {zeta0}\n\n[simulate]\ninit = {init}\n"
            "horizon = 30\n\n[check]\ncriteria = all\nhorizon = 30\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command in ("validate", "classify", "simulate", "check", "transform"):
            out = os.path.join(tmp, f"{command}.json")
            code = main([command, "--config", path, "--horizon", "30", "--out", out, "--quiet"])
            assert code in (0, 1, 2), command
            if code in (0, 2):
                with open(out, encoding="utf-8") as handle:
                    json.load(handle)
