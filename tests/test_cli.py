"""Tests for run configuration parsing, report serialization and the CLI."""
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscdelay
from oscdelay import config, criteria
from oscdelay.cli import build_parser, main, run_stages
from oscdelay.config import REQUIRED, SCHEMA, parse_config, parse_criteria
from oscdelay.criteria import (CRITERION_IDS, CriterionVerdict, Evidence, EvidenceRow, VerdictStatus,
                               evaluate_criterion)
from oscdelay.equation import BLOCK, MAX_TERMS
from oscdelay.errors import ConfigError
from oscdelay.report import (_block_lines, _csv_cell, _csv_number, _float_block, _json_string, _one_level,
                             _verdicts, fmt_float, new_report, to_csv, to_json)

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


# configs whose structure parse_config refuses, with the start of its message
STRUCTURE_ERRORS = [
    (EXAMPLE3_INI.replace("alpha = 5/3\n", ""), "missing key 'alpha' in [equation]"),
    ('r = "1"\nq = "1"\n', "cannot parse config"),
    ("[check]\ncriteria = all\nhorizon = 10\n", "missing [equation] section"),
    (EXAMPLE2_INI.replace("[check]", "[chek]"),
     "unknown section [chek]; known: [equation], [simulate], [check], [output]"),
    (EXAMPLE2_INI.replace("horizon = 150", "horizn = 10"), "unknown key 'horizn' in [check]; known: criteria, horizon"),
    (EXAMPLE2_INI.replace('q = "z^(4/3)"\n', 'q = "z^(4/3)"\nqq = 3\n'),
     "unknown key 'qq' in [equation]; known: r, q, alpha"),
    # configparser's own default section would copy horizon into [simulate] and [check]
    ("[DEFAULT]\nhorizon = 5\n\n" + EXAMPLE3_INI, "unknown section [DEFAULT]; known: [equation]"),
]
STRUCTURE_ERROR_IDS = ["missing-alpha", "no-section-header", "no-equation-section", "misspelt-section",
                       "misspelt-check-key", "unknown-equation-key", "default-section"]


@st.composite
def config_texts(draw):
    """{section: {key: text}} over SCHEMA: [equation] and every required key always,
    each other section and key drawn in or out, and texts quoted, cased and spaced as a
    person might write them."""
    sigma = draw(st.integers(1, 3))
    init = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=sigma + 2,
                    max_size=sigma + 2).filter(any).map(lambda values: ", ".join(map(repr, values)))
    texts = {
        "equation": {"r": st.sampled_from(['"(z*(z+1))^(5/3)"', "'z^2 + 1'", '"(z*(z-1))^(1/3)"']),
                     "q": st.sampled_from(['"z^(4/3)"', '"1"', '"4*(z^2-1)*z^(2/3)/3"']),
                     "alpha": st.sampled_from(["1/3", "1", '"5/3"', "3", "7/5"]),
                     "sigma": st.just(str(sigma)),
                     "form": st.sampled_from(["delay", "delay_plus_one", "Delay_Plus_One"]),
                     "zeta0": st.integers(-3, 5).map(str),
                     "theta_closed_form": st.sampled_from(['"1/z"', '"1/(z-1)"'])},
        "simulate": {"init": init},
        "check": {"criteria": st.sampled_from(["all", "ALL", "Thm21", "Lem21, Thm23", " Thm22B ,Thm21,"]),
                  "horizon": st.integers(1, 10 ** 6).map(str)},
        "output": {"format": st.sampled_from(["json", "csv", "JSON"]),
                   "path": st.sampled_from(["report.json", '"out/r.csv"', "''", ""])},
    }
    drawn = {}
    for name, section in SCHEMA.items():
        if name == "equation" or draw(st.booleans()):
            drawn[name] = {k: draw(texts[name][k]) for k, key in section.keys.items()
                           if key.default is REQUIRED or draw(st.booleans())}
    return drawn


def ini_text(sections):
    """An INI config from {section: {key: text}}."""
    return "".join(f"[{name}]\n" + "".join(f"{key} = {text}\n" for key, text in keys.items())
                   for name, keys in sections.items())


def echo_texts(echo):
    """echo()'s settings as config texts: a str quoted, a list comma-joined, None left out."""
    def text(value):
        if isinstance(value, list):
            return ", ".join(map(str, value))
        return f'"{value}"' if isinstance(value, str) else str(value)
    return {name: {key: text(value) for key, value in keys.items() if value is not None}
            for name, keys in echo.items()}


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

    @pytest.mark.parametrize("text, message", STRUCTURE_ERRORS, ids=STRUCTURE_ERROR_IDS)
    def test_structure_error_named(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, text))
        assert str(exc.value).startswith(message)

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

    @settings(max_examples=150, deadline=None)
    @given(texts=config_texts())
    def test_echo_parses_back_to_the_same_config(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "run.ini"
            path.write_text(ini_text(texts))
            cfg = parse_config(str(path))
            path.write_text(ini_text(echo_texts(cfg.echo())))
            again = parse_config(str(path))
        assert again == cfg
        assert again.echo() == cfg.echo()

    @pytest.mark.parametrize("where", ["README", "docstring"])
    def test_documented_keys_are_the_schema(self, where):
        if where == "README":
            readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
            block = re.search(r"## Command line\n.*?```ini\n(.*?)```", readme.read_text(), re.S).group(1)
        else:
            block = config.__doc__
        documented, keys = {}, None
        for line in block.splitlines():
            if header := re.match(r"\s*\[(\w+)\]", line):
                keys = documented.setdefault(header.group(1), [])
            elif key := re.match(r"\s*(\w+) =", line):
                keys.append(key.group(1))
        assert documented == {name: list(section.keys) for name, section in SCHEMA.items()}


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


def _to_plain(obj):
    """obj normalized into dicts, lists and scalars, each evidence row a dict: the
    plain report tree that the two oracle writers below read."""
    obj = _one_level(obj)
    if isinstance(obj, Evidence):
        return [row._asdict() for row in obj]
    if isinstance(obj, dict):
        return {str(k): _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    return obj


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


def csv_per_row(sections):
    """The per-row CSV writer that formatted each EvidenceRow with one template, kept as
    the oracle of the column writer. `sections` pairs a criterion id with its rows."""
    lines = ["criterion_id,zeta,term,partial_sum,running_value"]
    for criterion, rows in sections:
        cid = _csv_cell(criterion) + ","
        for row in rows:
            text = "%d,%.17g,%.17g,%.17g" % tuple(row)
            if "n" in text:
                text = ",".join([str(row[0]), *map(_csv_number, row[1:])])
            lines.append(cid + text)
    return "\n".join(lines) + "\n"


def rows_of(report):
    return [(v.criterion, tuple(v.evidence)) for v in _verdicts(report)]


def verdict_report(*verdicts):
    report = new_report({})
    report["verdicts"] = list(verdicts)
    return report


class TestCsvWriter:
    SPECIAL = (EvidenceRow(1, math.nan, math.inf, -math.inf), EvidenceRow(2, -0.0, 5e-324, 1.0 / 3.0))

    def _verdict(self, criterion, rows=SPECIAL):
        return CriterionVerdict(criterion, VerdictStatus.INCONCLUSIVE, "c", rows)

    def test_check_verdicts_match_oracle(self, ex2_config):
        report = run_stages(parse_config(ex2_config), ("validate", "check"))
        report["stages"]["check"]["verdicts"].append(self._verdict("Thm21"))
        report["stages"]["transform"] = {"sumq_verdict": self._verdict("CanonicalSumQ")}
        text = to_csv(report)
        assert "NaN,Infinity,-Infinity" in text
        assert text == csv_via_plain_dicts(report) == csv_per_row(rows_of(report))

    def test_example_verdicts_match_oracle(self):
        report = new_report({"example": 1})
        example = oscdelay.reproduce_example(1, horizon=60)
        report["verdicts"] = example["verdicts"] + [self._verdict("a,\"quoted\" 100% id")]
        text = to_csv(report)
        assert '"a,""quoted"" 100% id",1,NaN,Infinity,-Infinity' in text
        assert text == csv_via_plain_dicts(report) == csv_per_row(rows_of(report))

    # any zeta, any float (the whole exponent range, +-0.0, subnormals, NaN and +-inf)
    # and any criterion id, "%" and quotes included; the oracle reads the drawn rows
    @settings(max_examples=200, deadline=None)
    @given(criterion=st.text(max_size=6),
           rows=st.lists(st.builds(EvidenceRow, st.integers(), st.floats(), st.floats(), st.floats()),
                         max_size=8))
    @example(criterion="Thm21",
             rows=[EvidenceRow(-(10 ** 30), 0.0, -0.0, 2.2250738585072009e-308),
                   EvidenceRow(2 ** 63, 1.7976931348623157e308, -5e-324, 1e-5)])
    def test_drawn_rows_match_oracle(self, criterion, rows):
        report = verdict_report(self._verdict(criterion, tuple(rows)))
        assert to_csv(report) == csv_per_row([(criterion, rows)]) == csv_via_plain_dicts(report)

    def test_long_horizon_report_matches_oracle(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, POLY_INI.replace("criteria = all", "criteria = Thm21,Lem21")
                                        .replace("horizon = 200", "horizon = 20000")))
        report = run_stages(cfg, ("validate", "check"))
        sections = rows_of(report)
        assert [(cid, [row.zeta for row in rows]) for cid, rows in sections] == [
            (cid, list(range(1, 20001))) for cid in ("Thm21", "Lem21")]
        text = to_csv(report)
        assert text.count("\n") == 40001
        assert text == csv_per_row(sections)

    def test_planted_non_finite_cells_match_oracle(self):
        n = 20000
        column = [z / 7.0 for z in range(n)]
        term, partial = list(column), list(column)
        term[7001] = math.nan
        partial[12999] = -math.inf
        shared = CriterionVerdict("Lem21", VerdictStatus.INCONCLUSIVE, "c",
                                  Evidence(range(5, 5 + n), term, partial, partial))
        rows = tuple(map(EvidenceRow, range(-n, 0), term, partial, column))
        report = verdict_report(shared, self._verdict("Thm23", rows))
        text = to_csv(report)
        assert "Lem21,7006,NaN,1000.1428571428571,1000.1428571428571\n" in text
        assert "Lem21,13004,1857,-Infinity,-Infinity\n" in text
        assert text == csv_per_row([("Lem21", tuple(shared.evidence)), ("Thm23", rows)])

    def test_planted_edge_cells_match_oracle(self):
        # +-0.0 are certified, so Lem21 keeps the block; a subnormal, a value past 1e280 and
        # a tie at p = 23 are not, and each sends its verdict to the template; an id's own
        # NUL, quotes, "%" and newline stay on the block path
        n = 20000
        column = [z / 7.0 for z in range(n)]

        def planted(i, value):
            return column[:i] + [value] + column[i + 1:]

        zeros = planted(4000, -0.0)
        zeros[9000] = 0.0
        evidence = {"Lem21": Evidence(range(5, 5 + n), planted(12000, -0.0), zeros, zeros),
                    "Thm21": Evidence(range(1, 1 + n), planted(7001, 5e-324), column, column),
                    "Thm22A": Evidence(range(1, 1 + n), column, planted(19999, 1e300), column),
                    "Thm23": Evidence(range(-n, 0), column, column, planted(3, 3 * 2.0 ** -24)),
                    'a\x00"%s",\n': Evidence(range(3), [0.5, -0.0, 2.5], [0.5, 0.5, 3.0], [1e-5, 1e17, 0.0])}
        assert [cid for cid, ev in evidence.items() if _block_lines(ev) is not None] == ["Lem21", 'a\x00"%s",\n']
        report = verdict_report(*(CriterionVerdict(cid, VerdictStatus.INCONCLUSIVE, "c", ev)
                                  for cid, ev in evidence.items()))
        text = to_csv(report)
        assert "Lem21,4005,571.42857142857144,-0,-0\n" in text
        assert "Lem21,12005,-0,1714.2857142857142,1714.2857142857142\n" in text
        assert "Lem21,9005,1285.7142857142858,0,0\n" in text
        assert "Thm21,7002,4.9406564584124654e-324," in text
        assert "Thm22A,20000,2857,1.0000000000000001e+300,2857\n" in text
        assert "Thm23,-19997,0.42857142857142855,0.42857142857142855,1.7881393432617188e-07\n" in text
        assert text.endswith('\n"a\x00""%s"",\n",1,-0,0.5,1e+17\n"a\x00""%s"",\n",2,2.5,3,0\n')
        assert text == csv_per_row([(cid, tuple(ev)) for cid, ev in evidence.items()])

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.builds(EvidenceRow, st.integers(), st.floats(), st.floats(), st.floats()),
                         max_size=8),
           data=st.data())
    def test_evidence_reads_as_the_rows_given(self, rows, data):
        rows = tuple(rows)
        evidence = self._verdict("Thm21", rows).evidence
        assert isinstance(evidence, Evidence)
        assert tuple(evidence) == rows and len(evidence) == len(rows)
        if rows:
            i = data.draw(st.integers(-len(rows), len(rows) - 1))
            assert evidence[i] == rows[i] and type(evidence[i]) is EvidenceRow
        cut = data.draw(st.slices(len(rows) + 2))
        assert evidence[cut] == rows[cut]

    def test_criterion_to_csv_builds_no_rows(self, monkeypatch):
        made = []

        class CountedRow(EvidenceRow):
            def __new__(cls, *fields):
                made.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(criteria, "EvidenceRow", CountedRow)
        eq = oscdelay.example_equation(3)
        text = to_csv(verdict_report(evaluate_criterion("Lem21", eq, 20000)))
        assert made == []
        assert text.count("\n") == 20001
        assert text.splitlines()[-1].split(",")[:3] == ["Lem21", "20000", "%.17g" % eq.q(20000)]
        # the counter sees the rows that are built
        assert len(list(evaluate_criterion("Lem21", eq, 3).evidence)) == len(made) == 3

    def test_row_fields_name_json_keys_and_csv_columns(self):
        report = verdict_report(self._verdict("Thm21"))
        evidence = json.loads(to_json(report))["verdicts"][0]["evidence"]
        assert [tuple(row) for row in evidence] == [EvidenceRow._fields] * len(self.SPECIAL)
        assert tuple(to_csv(report).split("\n")[0].split(",")[1:]) == EvidenceRow._fields


class TestCsvIds:
    """Each kind of criterion id against the "%" template oracle at 20 000 rows: an ASCII
    id with no NUL leads each line inside the block, any other joins after the strip."""
    N = 20000

    def _evidence(self, zeta):
        term = np.arange(len(zeta)) / 7.0
        partial = np.cumsum(term)
        return Evidence(zeta, term, partial, partial)

    @pytest.mark.parametrize("criterion", ["Thm21", "a,b", "Lem21 \u03b8", 'a\x00"%s",\n'],
                             ids=["ascii", "quoted", "non-ascii", "nul"])
    def test_id_matches_oracle(self, criterion):
        # a second verdict on an equal range shares its zeta block
        verdicts = [CriterionVerdict(cid, VerdictStatus.INCONCLUSIVE, "c", self._evidence(range(3, 3 + self.N)))
                    for cid in (criterion, "Lem21")]
        assert all(_block_lines(v.evidence) is not None for v in verdicts)
        text = to_csv(verdict_report(*verdicts))
        assert text.count("\n") == 2 * self.N + 1 + (criterion.count("\n") * self.N)
        assert text == csv_per_row(rows_of(verdict_report(*verdicts)))

    def test_verdicts_on_other_ranges_match_oracle(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, POLY_INI.replace("horizon = 200", "horizon = 20000")))
        report = run_stages(cfg, ("check", "transform"))
        report["verdicts"] = [
            CriterionVerdict(cid, VerdictStatus.INCONCLUSIVE, "c", self._evidence(zeta))
            for cid, zeta in (("Thm21", range(5, 5 + self.N)), ("Lem21", range(-self.N, 0)),
                              ("Thm23", range(0, 2 * self.N, 2)), ("Thm21", range(1, 1 + self.N)))]
        sections = rows_of(report)
        assert [cid for cid, _ in sections] == [*CRITERION_IDS, "CanonicalSumQ", "Thm21", "Lem21", "Thm23", "Thm21"]
        assert to_csv(report) == csv_per_row(sections)


def block_texts(values):
    """Each value's text and whether it is certified, read from report._float_block."""
    block, certified = _float_block(np.array(values, dtype=float))
    ends = list(itertools.accumulate(np.count_nonzero(block, axis=0).tolist()))
    text = block.T.tobytes().translate(None, b"\0").decode("ascii")
    return [text[a:b] for a, b in zip([0] + ends, ends)], certified.tolist()


def _decades(rng, n):
    # powers of ten and their neighbours up to 5 ulps away: rounding up to the next power
    # of ten, and the fixed/scientific switch at 1e-4 and 1e17
    p = 10.0 ** rng.integers(-279, 280, n)
    p[::3] = 10.0 ** rng.choice([-5, -4, 16, 17], len(p[::3]))
    return p * (1 + rng.integers(-5, 6, n) * 2.0 ** -53)


def _edges(rng, n):
    tiny = np.array([5e-324, 2.2250738585072009e-308, 1e-280 / 2.0 ** 3, 1e300, 1.7976931348623157e308])
    subnormal = rng.integers(1, 2 ** 52, n).astype(np.uint64).view(np.float64)
    edge = [0.0, 1e-280, 1e280, np.nextafter(1e-280, 1.0), np.nextafter(1e280, 0.0)]
    values = np.where(rng.random(n) < 0.5, rng.choice(edge, n), np.where(rng.random(n) < 0.5, subnormal,
                                                                           rng.choice(tiny, n)))
    return values * rng.choice([-1.0, 1.0], n)


def _first_multiple_in(a, m, lo, hi):
    """The least t >= 0 with lo <= a*t mod m <= hi (0 <= lo <= hi < m), or None."""
    if lo == 0:
        return 0
    a %= m
    if a == 0:
        return None
    t = -(-lo // a)
    if a * t <= hi:
        return t
    u = _first_multiple_in(m % a, a, (-hi) % a, (-lo) % a)
    if u is None:
        return None
    t = -(-(m * u + lo) // a)
    return t if a * t - m * u <= hi else None


def _near_tie(e, p, gap):
    """A double m * 2^e (2^52 <= m < 2^53) with m * 2^e * 10^p within gap of a half-integer
    but not on one, or None.  m * 2^e * 10^p is m * num / den, so its fraction is
    (m * num mod den) / den: the least such m solves a linear congruence into an interval."""
    num, den = (5 ** p, 2 ** (-e - p)) if p >= 0 else (2 ** e, 10 ** -p)
    shift, half, width = num * 2 ** 52 % den, den // 2, int(gap * den)
    for lo, hi in ((half + 1, half + width), (half - width, half - 1)):
        lo, hi = (lo - shift) % den, (hi - shift) % den
        t = _first_multiple_in(num, den, lo, hi) if 1 <= width and lo <= hi else None
        if t is not None and t < 2 ** 52:
            return math.ldexp(2 ** 52 + t, e)
    return None


def _near_ties(exact):
    """Doubles x with x * 10^p within 1e-10 of a 17-digit half-integer, not on one: for p
    in [17, 22], where 10^p is a double, or for p outside [0, 22]."""
    pool = []
    for p in (range(17, 23) if exact else [*range(-60, -1), *range(23, 60)]):
        for target in (1e16, 2e16, 4e16, 8e16):
            e = math.floor(math.log2(target / 10.0 ** p)) - 52
            x = _near_tie(e, p, 1e-10) if e + p < 0 or (p < 0 <= e) else None
            if x is not None and 10 ** 16 <= Fraction(x) * Fraction(10) ** p < 10 ** 17:
                pool.append(x)
    return pool


# every odd m with m * 2^-(p+1) * 10^p of 17 digits, at p = 23 and 24
TIES_PAST_22 = [m * 2.0 ** -24 for m in range(3, 17, 2)] + [2.0 ** -25, 3 * 2.0 ** -25]


# a family of long float columns: (values from a generator and a length, whether each value
# must be certified: True, False, or None for either)
FLOAT_FAMILIES = {
    "bit_patterns": (lambda rng, n: rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64), None),
    # ties at p = 1, 2: exact, so rounded half-even and certified
    "binary_fractions": (lambda rng, n: np.floor(2.0 ** rng.integers(40, 53, n) * rng.uniform(0.5, 1, n))
                         + rng.choice([0.125, 0.25, 0.5, 0.75], n), True),
    "running_sums": (lambda rng, n: np.cumsum(10 ** rng.uniform(6, 9, n)), True),
    # m * 2^-(p+1) * 10^p is a half-integer of 17 digits: a tie past p = 22, never certified
    "ties_past_22": (lambda rng, n: rng.choice(TIES_PAST_22, n) * rng.choice([-1.0, 1.0], n), False),
    # within 1e-10 of a tie: exact where 10^p is a double, else closer to 1/2 than the margin
    "near_ties_exact": (lambda rng, n: rng.choice(_near_ties(True), n) * rng.choice([-1.0, 1.0], n), True),
    "near_ties_inexact": (lambda rng, n: rng.choice(_near_ties(False), n) * rng.choice([-1.0, 1.0], n), False),
    "decades": (_decades, True),
    "edges": (_edges, None),
}


class TestFloatBlock:
    """report._float_block, the CSV writer's float text, against "%.17g" on long columns."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(FLOAT_FAMILIES)), n=st.integers(1000, 20000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_certified_text_is_percent_17g(self, family, n, seed):
        build, must_certify = FLOAT_FAMILIES[family]
        values = build(np.random.default_rng(seed), n)
        values = values[np.isfinite(values)].tolist()
        texts, certified = block_texts(values)
        assert [(x, t) for x, t, c in zip(values, texts, certified) if c and t != "%.17g" % x] == []
        if must_certify is not None:
            assert set(certified) == {must_certify}
        # +-0 and the normal values in [1e-280, 1e280] of a certain rounding are certified
        outside = [x for x, c in zip(values, certified) if c and x and not 1e-280 <= abs(x) <= 1e280]
        assert outside == []
        assert all(c for x, c in zip(values, certified) if x == 0)

    @pytest.mark.parametrize("exact", [True, False])
    def test_near_ties_lie_inside_the_margin(self, exact):
        pool = _near_ties(exact)
        assert len(pool) >= (15 if exact else 200)
        for x in pool:
            k = math.floor(math.log10(x))
            scaled = Fraction(x) * Fraction(10) ** (16 - k)
            assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= 1e-10
            assert (0 <= 16 - k <= 22) == exact

    def test_binary_fractions_hold_exact_ties(self):
        # the half-even rule decides about one in nine of these values
        values = FLOAT_FAMILIES["binary_fractions"][0](np.random.default_rng(0), 20000)
        k = np.floor(np.log10(values)).astype(int)
        ties = sum((Fraction(x) * 10 ** (16 - e)).denominator == 2 for x, e in zip(values.tolist(), k.tolist()))
        assert ties > 2000
        texts, certified = block_texts(values)
        assert all(certified) and texts == ["%.17g" % x for x in values.tolist()]


def json_via_row_dicts(report):
    """The recursive JSON writer that wrote each evidence row as a row._asdict() dict of
    _to_plain, one call per dict and per value, kept as the oracle of the column writer."""
    def write(out, obj, indent):
        pad = "  " * indent
        if obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, float):
            out.append(fmt_float(obj))
        elif isinstance(obj, int):
            out.append(str(obj))
        elif isinstance(obj, str):
            out.append(_json_string(obj))
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            out.append("{\n")
            items = list(obj.items())
            for i, (k, v) in enumerate(items):
                out.append(pad + "  ")
                write(out, str(k), 0)
                out.append(": ")
                write(out, v, indent + 1)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                out.append("[]")
                return
            out.append("[\n")
            for i, v in enumerate(obj):
                out.append(pad + "  ")
                write(out, v, indent + 1)
                out.append(",\n" if i + 1 < len(obj) else "\n")
            out.append(pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    out = []
    write(out, _to_plain(report), 0)
    return "".join(out) + "\n"


def example_report(n, horizon=200):
    """The report `oscdelay example n` writes, built as cli.main builds it."""
    example = oscdelay.reproduce_example(n, horizon=horizon)
    report = new_report({"example": n, "lambda0": 2.0})
    report["stages"]["example"] = example
    report["verdicts"] = example.pop("verdicts")
    report["discrepancy_flags"] = example.pop("discrepancy_flags")
    return report


class TestJsonWriter:
    """to_json writes evidence from its columns; the per-row writer is the oracle."""
    _verdict = TestCsvWriter._verdict

    def test_check_and_transform_reports_match_oracle(self, ex3_config):
        report = run_stages(parse_config(ex3_config), ("validate", "classify", "simulate", "check",
                                                       "transform"))
        assert report["stages"]["transform"]["sumq_verdict"].evidence
        assert to_json(report) == json_via_row_dicts(report)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_example_reports_match_oracle(self, n):
        report = example_report(n)
        text = to_json(report)
        assert text == json_via_row_dicts(report)
        assert json.loads(text)["verdicts"][0]["evidence"][-1]["zeta"] > 100

    # any zeta, any float (the whole exponent range, +-0.0, subnormals, NaN and +-inf)
    # and any criterion id: quotes, "%", backslashes and control characters included
    @settings(max_examples=200, deadline=None)
    @given(criterion=st.text(max_size=6),
           rows=st.lists(st.builds(EvidenceRow, st.integers(), st.floats(), st.floats(), st.floats()),
                         max_size=8))
    @example(criterion='a"%s\\\x00\n\x7f %%', rows=list(TestCsvWriter.SPECIAL))
    @example(criterion="Thm21",
             rows=[EvidenceRow(-(10 ** 30), 0.0, -0.0, 2.2250738585072009e-308),
                   EvidenceRow(2 ** 63, 1.7976931348623157e308, -5e-324, 1e-5)])
    def test_drawn_rows_match_oracle(self, criterion, rows):
        report = verdict_report(self._verdict(criterion, tuple(rows)))
        text = to_json(report)
        assert text == json_via_row_dicts(report)
        assert json.loads(text)["verdicts"][0]["criterion"] == criterion

    def test_int_and_bool_cells_match_oracle(self):
        # "%.17g" % True is "1": a column that is not all floats is spelled cell by cell
        rows = (EvidenceRow(True, 1, False, 2 ** 70), EvidenceRow(False, True, 0.5, -3),
                EvidenceRow(2, 2.5, 0, True), EvidenceRow(3.0, -(2 ** 64), 1e300, None))
        report = verdict_report(self._verdict("Thm21", rows))
        text = to_json(report)
        assert text == json_via_row_dicts(report)
        evidence = json.loads(text)["verdicts"][0]["evidence"]
        assert [list(row.values()) for row in evidence] == [list(row) for row in rows]
        assert '"zeta": true,' in text and '"running_value": 1180591620717411303424\n' in text

    def test_empty_evidence_matches_oracle(self):
        report = verdict_report(self._verdict("Thm22A", ()), self._verdict("Lem21", ()))
        report["stages"]["check"] = {"verdicts": [self._verdict("Thm23", ())]}
        text = to_json(report)
        assert text == json_via_row_dicts(report)
        assert text.count('"evidence": []') == 3

    def test_long_horizon_report_matches_oracle(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, POLY_INI.replace("criteria = all", "criteria = Thm21,Lem21")
                                        .replace("horizon = 200", "horizon = 20000")))
        report = run_stages(cfg, ("validate", "check"))
        text = to_json(report)
        assert text == json_via_row_dicts(report)
        assert text.count('"running_value": ') == 40000

    def test_planted_non_finite_cells_match_oracle(self):
        n = 20000
        column = [z / 7.0 for z in range(n)]
        term, partial = list(column), list(column)
        term[7001] = math.nan
        partial[12999] = -math.inf
        shared = CriterionVerdict("Lem21", VerdictStatus.INCONCLUSIVE, "c",
                                  Evidence(range(5, 5 + n), term, partial, partial))
        rows = tuple(map(EvidenceRow, range(-n, 0), term, partial, column))
        report = verdict_report(shared, self._verdict("Thm23", rows))
        text = to_json(report)
        assert text == json_via_row_dicts(report)
        row = ('"zeta": 7006,\n          "term": "NaN",\n          "partial_sum": 1000.1428571428571,\n'
               '          "running_value": 1000.1428571428571\n')
        assert row in text
        assert '"partial_sum": "-Infinity",\n          "running_value": "-Infinity"\n' in text

    def test_criterion_to_json_builds_no_rows(self, monkeypatch):
        made = []

        class CountedRow(EvidenceRow):
            def __new__(cls, *fields):
                made.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(criteria, "EvidenceRow", CountedRow)
        eq = oscdelay.example_equation(3)
        text = to_json(verdict_report(evaluate_criterion("Lem21", eq, 20000)))
        assert made == []
        assert text.count('"zeta": ') == 20000
        assert '"zeta": 20000,\n          "term": %s,' % ("%.17g" % eq.q(20000)) in text
        # the counter sees the rows that are built
        assert len(list(evaluate_criterion("Lem21", eq, 3).evidence)) == len(made) == 3


def without_timestamp(text):
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": "T"', text)


class TestParserBuiltOnce:
    """main parses with one parser per process; a call sees none of the calls before it."""

    def run_main(self, tmp_path, argv, fresh=False):
        if fresh:  # as a separate process would parse
            build_parser.cache_clear()
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        return without_timestamp(out.read_text())

    def test_consecutive_calls_match_separate_runs(self, tmp_path):
        calls = (["example", "1", "--lambda0", "0.5", "--horizon", "40"],
                 ["example", "1", "--horizon", "40"],
                 ["example", "2", "--format", "csv", "--horizon", "30"],
                 ["example", "2", "--horizon", "30"])
        parser = build_parser()
        consecutive = [self.run_main(tmp_path, argv) for argv in calls]
        assert build_parser() is parser
        assert consecutive == [self.run_main(tmp_path, argv, fresh=True) for argv in calls]
        assert json.loads(consecutive[1])["config"]["lambda0"] == 2.0
        assert consecutive[2].startswith("criterion_id,") and consecutive[3].startswith("{")

    def test_parse_error_leaves_the_next_call_unaffected(self, tmp_path, capsys):
        expected = self.run_main(tmp_path, ["example", "3", "--horizon", "40"], fresh=True)
        with pytest.raises(SystemExit) as exc:
            main(["example", "3", "--horizon", "x"])
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert self.run_main(tmp_path, ["example", "3", "--horizon", "40"]) == expected


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

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_report_emitted_without_quiet(self, ex2_config, tmp_path, capsys, to_file):
        out = tmp_path / "report.json"
        argv = ["validate", "--config", ex2_config] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 0
        printed = capsys.readouterr().out
        if to_file:
            assert printed == f"report written to {out}\n"
            assert json.loads(out.read_text())["stages"]["validate"]
        else:
            assert not out.exists()
            assert json.loads(printed)["stages"]["validate"]

    def test_index_past_exact_floats_exit_one(self, tmp_path, capsys):
        # past 2^53 float indices repeat, and z^2 read as canonical
        path = write_config(tmp_path, '[equation]\nr = "z^2"\nq = "1"\nalpha = 1\nsigma = 1\n'
                            "form = delay\nzeta0 = 100000000000000000\n")
        for command in ("validate", "classify", "check"):
            assert main([command, "--config", path, "--quiet"]) == 1
            assert "config error: |zeta0| and sigma must be at most 2^52" in capsys.readouterr().err

    def test_stages_run_in_the_order_given(self, ex2_config):
        report = run_stages(parse_config(ex2_config), ("check", "validate"))
        assert list(report["stages"]) == ["check", "validate"]

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
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1.0, 0.9, 0.8, 0.7\nhorizon = 1")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 0, 0, 0, 0")),
        (["check"], EXAMPLE3_INI.replace("horizon = 120", "horizon = abc")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1.0, 0.9, 0.8, 0.7\ntol = abc")),
        (["example", "1", "--horizon", "-1"], None),
        (["example", "2", "--horizon", "0"], None),
        (["check"], EXAMPLE3_INI.replace("sigma = 2", "sigma = -1")),
        (["check"], EXAMPLE3_INI.replace("form = delay_plus_one", "form = delay_minus_two")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = nan, 1, 1, 1")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1, inf, 1, 1")),
        (["classify"], EXAMPLE3_INI.replace('"1/z"', '"1/"')),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1.0, 0.9, 0.8, 0.7\ntol = nan")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1.0, 0.9, 0.8, 0.7\ntol = inf")),
        (["simulate"], EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7", "init = 1.0, 0.9, 0.8, 0.7\ntol = -1e-8")),
        (["example", "1", "--lambda0", "nan"], None),
        (["example", "1", "--lambda0", "inf"], None),
        *[(["check"], text) for text, _ in STRUCTURE_ERRORS],
    ], ids=["check-horizon-0", "validate-horizon-neg", "transform-horizon-neg",
            "simulate-horizon-1", "check-section-horizon-0", "simulate-section-horizon-1",
            "zero-init", "check-section-horizon-text", "simulate-section-tol-text",
            "example1-horizon-neg", "example2-horizon-0", "negative-sigma", "unknown-form",
            "nan-init", "inf-init", "unparsable-theta-closed-form", "simulate-section-tol-nan",
            "simulate-section-tol-inf", "simulate-section-tol-neg", "example1-lambda0-nan",
            "example1-lambda0-inf", *STRUCTURE_ERROR_IDS])
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
        # the last two are within 1e-3 of theta(1) = 1, far outside the 1e-9 band
        for form in ("2/z", "1.0005/z", "1/z + 5e-4"):
            path = write_config(tmp_path, EXAMPLE3_INI.replace('"1/z"', f'"{form}"')
                                .replace("criteria = Lem21", "criteria = all"))
            out = tmp_path / "r.json"
            assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 2
            data = json.loads(out.read_text())
            assert data["errors"] and all("lies outside" in e["error"] for e in data["errors"])
            assert "classify" not in data["stages"]

    @pytest.mark.parametrize("ini, error", [
        (EXAMPLE2_INI, "the transform requires alpha >= 1, got 1/3"),
        (EXAMPLE3_INI.replace("alpha = 5/3", "alpha = 1/3").replace('theta_closed_form = "1/z"\n', ""),
         "the transform requires alpha >= 1, got 1/3"),
    ], ids=["delay-form", "alpha-one-third"])
    def test_transform_outside_its_domain_exit_two(self, tmp_path, ini, error):
        out = tmp_path / "t.json"
        assert main(["transform", "--config", write_config(tmp_path, ini), "--out", str(out),
                     "--quiet"]) == 2
        data = json.loads(out.read_text())
        assert data["errors"] == [{"stage": "transform", "error": error}]
        assert "transform" not in data["stages"]

    def test_simulate_quotient_overflow_exit_zero(self, tmp_path):
        # y / r(z+1) overflows long before r = 2^(-z) reaches zero
        path = write_config(tmp_path, EXAMPLE2_INI.replace('"(z*(z-1))^(1/3)"', '"1/2^z"')
                            .replace('"z^(4/3)"', '"1"').replace("alpha = 1/3", "alpha = 1")
                            .replace("zeta0 = 2", "zeta0 = 1")
                            .replace('theta_closed_form = "1/(z-1)"\n', "")
                            .replace("[check]", "[simulate]\ninit = 1, 0.5, 0.25\n\n[check]"))
        out = tmp_path / "sim.json"
        argv = ["simulate", "--config", path, "--horizon", "1100", "--out", str(out), "--quiet"]
        assert main(argv) == 0
        assert json.loads(out.read_text())["stages"]["simulate"]["status"]["kind"] == "overflowed"

    def test_simulate_first_difference_overflow_exit_zero(self, tmp_path):
        # x(2) - x(1) = 2e308 overflows before the first step
        path = write_config(tmp_path, '[equation]\nr = "1"\nq = "1"\nalpha = 1\nsigma = 1\n'
                            "form = delay\nzeta0 = 1\n\n[simulate]\ninit = 0, -1e308, 1e308\n")
        out = tmp_path / "sim.json"
        argv = ["simulate", "--config", path, "--horizon", "30", "--out", str(out), "--quiet"]
        assert main(argv) == 0
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

    def test_check_without_check_section_runs_every_criterion_at_200(self, tmp_path):
        path = write_config(tmp_path, EXAMPLE3_INI.split("[check]")[0])
        out = tmp_path / "chk.json"
        assert main(["check", "--config", path, "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["check"] == {"criteria": list(CRITERION_IDS), "horizon": 200}
        verdicts = data["stages"]["check"]["verdicts"]
        assert [v["criterion"] for v in verdicts] == list(CRITERION_IDS)
        assert all(len(v["evidence"]) == 200 for v in verdicts)

    def test_check_section_with_only_a_horizon_runs_every_criterion(self, tmp_path):
        path = write_config(tmp_path, EXAMPLE3_INI.replace("criteria = Lem21\n", "").replace("120", "10"))
        out = tmp_path / "chk.json"
        assert main(["check", "--config", path, "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["check"] == {"criteria": list(CRITERION_IDS), "horizon": 10}
        verdicts = data["stages"]["check"]["verdicts"]
        assert [v["criterion"] for v in verdicts] == list(CRITERION_IDS)
        assert all(len(v["evidence"]) == 10 for v in verdicts)

    @pytest.mark.parametrize("command", ["validate", "simulate", "check", "transform"])
    def test_validate_stage_without_check_section_reads_the_default_horizon(self, tmp_path, command):
        # one horizon for every stage: zeta0 + 200, as [check]'s default
        path = write_config(tmp_path, EXAMPLE3_INI.split("[check]")[0])
        out = tmp_path / "v.json"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["stages"]["validate"]["horizon"] == 1 + 200

    def test_simulate_without_simulate_section_exit_one(self, ex2_config, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", ex2_config, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "config error: simulate needs a [simulate] section\n"
        assert not out.exists()

    def test_simulate_stage_without_section_is_recorded(self, ex2_config):
        report = run_stages(parse_config(ex2_config), ("validate", "simulate"))
        assert report["errors"] == [{"stage": "simulate",
                                     "error": "simulate needs a [simulate] section"}]
        assert list(report["stages"]) == ["validate"]

    @pytest.mark.parametrize("key, value, home", [
        ("horizon", "40", "every stage reads the run's one horizon, [check] horizon or --horizon"),
        ("tol", "1e-6", "simulate classifies at the fixed tolerance solver.ZERO_TOL = 1e-08"),
    ], ids=["horizon", "tol"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_removed_simulate_key_exit_one(self, tmp_path, capsys, command, key, value, home):
        path = write_config(tmp_path, EXAMPLE3_INI.replace("init = 1.0, 0.9, 0.8, 0.7",
                                                           f"init = 1.0, 0.9, 0.8, 0.7\n{key} = {value}"))
        out = tmp_path / "r.json"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error: [simulate] {key} is no longer read: {home}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "classify", "check", "transform"])
    def test_horizon_one_with_simulate_section_exit_zero(self, ex3_config, tmp_path, command):
        # only simulate needs two steps; the other commands read horizon 1 as given
        out = tmp_path / "r.json"
        argv = [command, "--config", ex3_config, "--horizon", "1", "--out", str(out), "--quiet"]
        assert main(argv) == 0
        assert json.loads(out.read_text())["stages"]["validate"]["horizon"] == 1 + 1

    def test_simulate_at_check_horizon_one_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, EXAMPLE3_INI.replace("horizon = 120", "horizon = 1"))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "config error: simulate horizon must be at least 2, got 1\n"
        assert not out.exists()
        report = run_stages(parse_config(path), ("validate", "simulate"))
        assert report["errors"] == [{"stage": "simulate",
                                     "error": "simulate horizon must be at least 2, got 1"}]

    def test_simulate_iterates_to_the_run_horizon(self, ex3_config, tmp_path):
        # [check] horizon = 120: simulate iterates to, and validates, [1, 121]
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", ex3_config, "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["simulate"] == {"init": [1.0, 0.9, 0.8, 0.7]}
        assert data["stages"]["validate"]["horizon"] == data["stages"]["simulate"]["end_index"] == 121

    @pytest.mark.parametrize("command", ["validate", "classify", "simulate"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_csv_without_rows_exit_one(self, ex3_config, tmp_path, capsys, command, via):
        # only verdict evidence has CSV rows: a header alone would drop the stage's result
        path = ex3_config
        extra = ["--format", "csv"]
        if via == "config":
            path, extra = write_config(tmp_path, EXAMPLE3_INI + "\n[output]\nformat = csv\n"), []
        out = tmp_path / "r.csv"
        assert main([command, "--config", path, *extra, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (f"config error: {command} writes no CSV rows; "
                                           "check, transform and example do\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["example", "2"], ["validate"]], ids=["example", "validate"])
    def test_unwritable_out_exit_one(self, ex2_config, tmp_path, capsys, argv):
        out = str(tmp_path / "missing" / "x.json")
        if argv[0] == "validate":
            argv = argv + ["--config", ex2_config]
        assert main(argv + ["--out", out, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write report {out!r}: ") and "Traceback" not in err

    def test_undecodable_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(EXAMPLE2_INI.encode().replace(b"z^(4/3)", b"z^(4/3)\xff"))
        assert main(["validate", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {str(path)!r}: 'utf-8' codec can't decode")

    def test_example_stage_error_exit_two(self, tmp_path, capsys):
        # example reports no per-stage errors: its StageError ends the run, and no report is written
        out = tmp_path / "ex1.json"
        assert main(["example", "1", "--lambda0", "-1", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == "stage error: hypothesis H2 violated: q(1) = -2.0 < 0\n"
        assert not out.exists()

    def test_example_validates_its_horizon(self, tmp_path):
        out = tmp_path / "ex1.json"
        assert main(["example", "1", "--horizon", "300", "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["stages"]["example"]["validation"]["horizon"] == 301

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
        # q = 1 - z < 0 from z = 2 on gives q_tilde(2) < 0, which the hypothesis check refuses
        path = write_config(tmp_path, EXAMPLE3_INI.replace('"(z*(z+1))^(5/3)"', '"2^z"')
                            .replace('"4*(z^2-1)*z^(2/3)/3"', '"1-z"')
                            .replace("alpha = 5/3", "alpha = 1")
                            .replace('theta_closed_form = "1/z"\n', ""))
        out = tmp_path / "t.json"
        assert main(["transform", "--config", path, "--out", str(out), "--quiet"]) == 2
        errors = json.loads(out.read_text())["errors"]
        assert errors == [{"stage": "transform",
                           "error": "hypothesis H2 violated: q(2) = -0.25 < 0"}]

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

    @pytest.mark.parametrize("argv, r, q, stage, want", [
        (["check", "--criterion", "Lem21"], "1", "1e307", "check", "certified_holds"),
        (["check", "--criterion", "Thm21"], "1e-300", "1e7", "check", "certified_holds"),
        (["classify"], "1/(z*1e300)", "1", "classify", "canonical"),
    ], ids=["lem21-partial-sums", "thm21-partial-sums", "tail-block-sums"])
    def test_overflowing_sums_warn_nothing(self, tmp_path, argv, r, q, stage, want):
        # a numpy RuntimeWarning is an error under pytest, and the CLI would exit 3 on it
        path = write_config(tmp_path, f'[equation]\nr = "{r}"\nq = "{q}"\nalpha = 1\n'
                            "sigma = 1\nform = delay\nzeta0 = 1\n")
        out = tmp_path / "report.json"
        assert main(argv + ["--config", path, "--horizon", "200", "--out", str(out), "--quiet"]) == 0
        result = json.loads(out.read_text())["stages"][stage]
        if stage == "classify":
            assert result["form"] == want
        else:
            (verdict,) = result["verdicts"]
            assert verdict["status"] == want
            assert verdict["evidence"][-1]["partial_sum"] == "Infinity"

    @pytest.mark.parametrize("r, alpha, sigma, horizon, error", [
        # theta(0) needs r(0) = 0 > 0
        ("z*(z+1)", 1, 2, 200, "q_tilde not evaluable at 1: r(0) is not positive"),
        # r(309) = 10^309 overflows; validate reports H1 there
        ("10^z", 1, 1, 400, "r_tilde not evaluable at 309: 10^z is not finite at index 309"),
        # theta(1) = 4.9e13 is certified, but its power alpha - 1 = 24 passes the float range
        ("(1e-12*1.0204^z)^25", 25, 1, 200, "q_tilde not evaluable at 1: q_tilde is not finite at index 1"),
    ], ids=["shifted-theta-below-domain", "r-overflows-in-horizon", "theta-power-overflows"])
    def test_transform_names_first_unevaluable_coefficient(self, tmp_path, r, alpha, sigma, horizon, error):
        path = write_config(tmp_path, f'[equation]\nr = "{r}"\nq = "1"\nalpha = {alpha}\n'
                            f"sigma = {sigma}\nform = delay_plus_one\nzeta0 = 1\n")
        out = tmp_path / "t.json"
        argv = ["transform", "--config", path, "--horizon", str(horizon), "--out", str(out), "--quiet"]
        assert main(argv) == 2
        assert json.loads(out.read_text())["errors"] == [{"stage": "transform", "error": error}]

    def test_classify_names_pole_in_tail(self, tmp_path):
        # r has a pole at z = 1000, inside the tail: its column is NaN from there,
        # and the scalar call at 1000 gives the error the report records
        path = write_config(tmp_path, '[equation]\nr = "z^2 + 1/(z-1000)"\nq = "1"\nalpha = 1\n'
                            "sigma = 1\nform = delay\nzeta0 = 1\n")
        out = tmp_path / "c.json"
        assert main(["classify", "--config", path, "--out", str(out), "--quiet"]) == 2
        assert json.loads(out.read_text())["errors"] == [{"stage": "classify", "error": "division by zero"}]

    def test_classify_divergent_tail_canonical(self, tmp_path):
        # r = 1: the tail terms never fall, so theta does not exist
        path = write_config(tmp_path, EXAMPLE2_INI.replace('"(z*(z-1))^(1/3)"', '"1"')
                            .replace('theta_closed_form = "1/(z-1)"\n', ""))
        out = tmp_path / "c.json"
        assert main(["classify", "--config", path, "--out", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["stages"]["classify"] == {"form": "canonical", "theta_at_start": None}
        assert data["errors"] == []


def _tail_points(tmp_path, monkeypatch, ini, transform_exit=0) -> int:
    """The tail-term points check then transform evaluate through _inv_r_alpha."""
    from oscdelay import equation
    from oscdelay.equation import _tail_table

    points = []
    original = equation._inv_r_alpha

    def counting(r, alpha, s):
        points.append(len(s))
        return original(r, alpha, s)

    monkeypatch.setattr(equation, "_inv_r_alpha", counting)
    _tail_table.cache_clear()
    path = write_config(tmp_path, ini)
    for command, code in (("check", 0), ("transform", transform_exit)):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == code
    return sum(points)


def test_tail_terms_summed_once_per_equation(tmp_path, monkeypatch):
    """check then transform evaluate each tail term about once: the one tail
    pass is shared, not repeated for each of the 201 indices, and it runs through
    the counted function.  r's expansion in 1/s sums all past the first block."""
    assert BLOCK <= _tail_points(tmp_path, monkeypatch, POLY_INI) <= BLOCK + 1_000


def test_tail_without_an_expansion_sums_every_block(tmp_path, monkeypatch):
    # an exponential leaves r without an expansion: 1 M terms, ending at
    # max_terms, which the transform refuses
    ini = POLY_INI.replace("(z*(z+1.7))^(5/3)", "z^2*(2+2^(-z))")
    assert MAX_TERMS <= _tail_points(tmp_path, monkeypatch, ini, transform_exit=2) <= 1_100_000


def test_theta_table_read_once_per_window(tmp_path, monkeypatch):
    """check --criterion all on the README config reads the theta table a fixed number
    of times, whatever the horizon: each criterion's theta column is one window, not
    one lookup per index."""
    from oscdelay.equation import _TailTable

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    path = write_config(tmp_path, re.search(r"## Command line\n.*?```ini\n(.*?)```",
                                            readme.read_text(), re.S).group(1))
    reads = []
    for name in ("lookup", "window"):
        read = getattr(_TailTable, name, None)  # a table without windows reads by lookup only
        if read is not None:
            monkeypatch.setattr(_TailTable, name,
                                lambda self, *args, read=read: reads.append(args) or read(self, *args))
    counts = []
    for horizon in ("50", "400"):
        reads.clear()
        out = tmp_path / "check.json"
        assert main(["check", "--config", path, "--criterion", "all", "--horizon", horizon,
                     "--out", str(out), "--quiet"]) == 0
        counts.append(len(reads))
    assert counts[0] == counts[1] <= 3 * len(CRITERION_IDS), counts


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
# tail sums past the float range: the later blocks' sum, a suffix sum, and a
# theta past it whose criterion terms are all NaN
@example(r="1e-308*z^1.01", q="1", alpha="1", form=("delay", 1), zeta0=1, init=None)
@example(r="0.6*10^(z-309)", q="1", alpha="1", form=("delay_plus_one", 1), zeta0=1, init=None)
@example(r="0.59*10^(z-309)", q="1", alpha="1", form=("delay", 1), zeta0=2, init=None)
# indices past exact floats: a config error, not an OverflowError
@example(r="z^2", q="1", alpha="1", form=("delay", 1), zeta0=10**19, init=None)
@example(r="z^2", q="1", alpha="1", form=("delay", 10**19), zeta0=1, init="1, 1, 1")
def test_cli_never_exits_three(r, q, alpha, form, zeta0, init):
    """Every failure stays inside the OscDelayError hierarchy: exit 0, 1 or 2; every
    report written (exit 0 or 2) is valid JSON."""
    kind, sigma = form
    init = init or ", ".join(["1"] * (sigma + 2))
    text = (f'[equation]\nr = "{r}"\nq = "{q}"\nalpha = {alpha}\nsigma = {sigma}\n'
            f"form = {kind}\nzeta0 = {zeta0}\n\n[simulate]\ninit = {init}\n\n"
            "[check]\ncriteria = all\nhorizon = 30\n")
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
