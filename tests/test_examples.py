"""Tests for the built-in worked-example reproductions and the README's library example and config."""
import contextlib
import io
import json
import pathlib
import re

import pytest

from oscdelay import FormClass, example_equation, reproduce_example, theta
from oscdelay.cli import main
from oscdelay.equation import _TailTable, _table, _tail_table

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


class TestExampleEquations:
    def test_unknown_number_rejected(self):
        with pytest.raises(ValueError):
            example_equation(4)

    def test_all_examples_non_canonical(self):
        for n in (1, 2, 3):
            rep = reproduce_example(n)
            assert rep["form_class"] is FormClass.NON_CANONICAL

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equal_examples_share_one_table(self, n):
        a, b = example_equation(n), example_equation(n)
        assert a == b and a is not b
        theta(a, a.zeta0)
        theta(b, b.zeta0)
        assert _table(a) is _table(b)

    def test_lambda0_sweep_builds_one_table(self, monkeypatch):
        # q carries lambda0, but the tail sums depend only on r, alpha and zeta0
        built = []
        original = _TailTable.__init__

        def counting(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(_TailTable, "__init__", counting)
        _tail_table.cache_clear()
        for lambda0 in (0.5, 1.0, 2.0, 3.1):
            reproduce_example(1, lambda0)
        assert len(built) == 1

    def test_example2_starts_at_two(self):
        # r(1) = 0 would violate positivity, so the built-in starts at 2
        eq = example_equation(2)
        assert eq.zeta0 == 2
        assert eq.r(1) == 0.0


class TestReproduction:
    def test_example1_verdicts_hold(self):
        rep = reproduce_example(1, lambda0=2.0)
        by_id = {v.criterion: v for v in rep["verdicts"]}
        assert by_id["Thm21"].holds
        assert by_id["Thm23"].holds
        row = next(
            r for r in rep["comparison"] if r["quantity"] == "Thm23 running value at index 3"
        )
        assert row["abs_diff"] <= 1e-9

    def test_example1_threshold_flagged(self):
        rep = reproduce_example(1, lambda0=0.5)
        assert any("threshold" in f for f in rep["discrepancy_flags"])

    def test_example2_theta_and_terms(self):
        rep = reproduce_example(2)
        rows = {r["quantity"]: r for r in rep["comparison"]}
        assert rows["max |theta(z) - 1/(z-1)| on [2, 50]"]["computed"] <= 1e-9
        assert rows["max |q(s) * theta^(alpha+1)(s+1) - 1|"]["computed"] <= 1e-9
        (v22b,) = rep["verdicts"]
        assert v22b.holds

    @pytest.mark.parametrize("n, quantity, published, zs", [
        (2, "max |theta(z) - 1/(z-1)| on [2, 50]", lambda z: 1.0 / (z - 1.0), range(2, 51)),
        (3, "max |theta(z) - 1/z| on [1, 50]", lambda z: 1.0 / z, range(1, 51)),
    ], ids=["example2", "example3"])
    def test_theta_rows_read_the_numeric_tail_sum(self, n, quantity, published, zs):
        # theta returns the published value once it passes its check; the row
        # compares the published value with the tail sum itself
        row = next(r for r in reproduce_example(n)["comparison"] if r["quantity"] == quantity)
        eq = example_equation(n)
        want = max(abs(_table(eq).lookup(z)[0].value - published(z)) for z in zs)
        assert row["computed"] == want
        assert 0.0 < want <= 1e-9

    def test_example3_transform_columns(self):
        rep = reproduce_example(3)
        rows = {r["quantity"]: r for r in rep["comparison"]}
        assert rows["max |r_tilde(z) - 1| on [1, 100]"]["computed"] <= 1e-12
        assert rows["q_tilde spread on [2, 100]"]["computed"] <= 1e-9
        qrow = rows["q_tilde constant value"]
        assert qrow["computed"] == pytest.approx(0.8, abs=1e-9)
        assert "flag" in qrow  # published value 4 disagrees with the formula
        assert rows["residual of (-1)^z with q_tilde = 4 on [3, 100]"]["computed"] <= 1e-12
        assert any("4/5" in f for f in rep["discrepancy_flags"])

    def test_example3_comparison_verdict(self):
        rep = reproduce_example(3)
        (sumq,) = rep["verdicts"]
        assert sumq.criterion == "CanonicalSumQ"
        assert sumq.holds


def test_readme_library_example():
    """The README's library example runs and prints what its comments say."""
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(calls)
    for call, got in zip(calls, printed):
        if "#" not in call:
            continue
        want = call.split("#", 1)[1].split()
        if call.startswith("print(ceq."):
            # r_tilde and q_tilde carry the transform's rounding
            assert [float(v) for v in got.split()] == pytest.approx([float(v) for v in want], abs=1e-12)
        else:
            assert got.split() == want


@pytest.mark.parametrize("command", ["validate", "classify", "simulate", "check", "transform"])
def test_readme_config_runs_clean(tmp_path, command):
    """Each command on the README's INI config exits 0 with no errors, and its
    closed form passes the band: classify answers non_canonical from it."""
    block = re.search(r"## Command line\n.*?```ini\n(.*?)```", README.read_text(), re.S).group(1)
    config, out = tmp_path / "eq.ini", tmp_path / "report.json"
    config.write_text(block)
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["errors"] == []
    assert command in report["stages"]
    if command == "classify":
        stage = report["stages"]["classify"]
        assert stage["form"] == "non_canonical"
        assert stage["theta_at_start"]["method"] == "closed_form"
