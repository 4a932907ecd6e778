"""Tests for run configuration parsing, report serialization and the CLI."""
import json
import re

import pytest

from oscdelay.cli import main, run_stages
from oscdelay.config import parse_config
from oscdelay.errors import ConfigError
from oscdelay.report import fmt_float, to_csv, to_json

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
        assert cfg.alpha.num == 1 and cfg.alpha.den == 3
        assert cfg.sigma == 1 and cfg.zeta0 == 2
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

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(EXAMPLE2_INI.replace("alpha = 1/3", "alpha = 2/3"))
        assert main(["check", "--config", str(path)]) == 1

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


def test_tail_terms_summed_once_per_equation(tmp_path, monkeypatch):
    """check then transform evaluate each tail term about once: the one tail
    pass (1 M terms) is shared, not repeated for each of the 201 indices."""
    from oscdelay.equation import HalfLinearEquation, _tail_table

    points = []
    original = HalfLinearEquation.inv_r_alpha_array

    def counting(self, s):
        points.append(len(s))
        return original(self, s)

    monkeypatch.setattr(HalfLinearEquation, "inv_r_alpha_array", counting)
    _tail_table.cache_clear()
    path = write_config(tmp_path, POLY_INI)
    for command in ("check", "transform"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 0
    assert sum(points) <= 1_100_000
