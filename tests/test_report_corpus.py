"""A corpus of configs whose reports are pinned in outline: for each of validate,
classify, check and transform, the exit code, the violated hypotheses, the
`classify` form, each verdict status with its flag count (`+2` for two flags, no
suffix for none, so a flag that appears or vanishes moves the outline) and each
error's stage; and for simulate, on the configs with a [simulate] section, its
status and trajectory class at the run's horizon and at --horizon 7 and 1000.
Two of those configs iterate to horizon 3000, past the first block of 1024 steps
that iterate reads.

Five configs, from "1e-200*2^z" to "example1-horizon-1000", sit at the edge of
the float range, where a term overflows; an overflowed term is never a
divergence witness there.  tools/report_corpus.py reads CONFIGS to write every
report of the corpus in full.
"""
import json
import pathlib
import re
import time

import pytest

from oscdelay.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("validate", "classify", "check", "transform")


def ini(r, q, alpha, sigma, form, zeta0=1, closed_form=None, horizon=200):
    text = (f'[equation]\nr = "{r}"\nq = "{q}"\nalpha = {alpha}\nsigma = {sigma}\n'
            f"form = {form}\nzeta0 = {zeta0}\n")
    if closed_form:
        text += f'theta_closed_form = "{closed_form}"\n'
    return text + f"\n[check]\ncriteria = all\nhorizon = {horizon}\n"


RUNAWAY_INIT = "\n[simulate]\ninit = 1.0, 2.0, 2.5\n"


def readme_ini():
    return re.search(r"## Command line\n.*?```ini\n(.*?)```", README.read_text(), re.S).group(1)


CONFIGS = {
    "readme": readme_ini,
    "bench-family": lambda: ini("(z*(z+1.7))^(5/3)", "1.9*(z^2-1)*z^(2/3)", "5/3", 2,
                                "delay_plus_one"),
    "delay-form": lambda: ini("(z*(z-1))^(1/3)", "z^(4/3)", "1/3", 1, "delay", zeta0=2,
                              closed_form="1/(z-1)"),
    "r-z": lambda: ini("z", "1", 1, 1, "delay_plus_one"),
    "r-z-minus-5": lambda: ini("z-5", "1", 1, 1, "delay_plus_one"),
    "r-z^(3/2)-form-1/z": lambda: ini("z^(3/2)", "1", 1, 1, "delay_plus_one", closed_form="1/z"),
    "r-2^z-sigma-3": lambda: ini("2^z", "1", 1, 3, "delay_plus_one"),
    # Thm22A terms overflow from z = 3, though each is finite and the series converges
    "1e-200*2^z": lambda: ini("1e-200*2^z", "z-1", 1, 1, "delay_plus_one"),
    # Thm21 terms overflow at z = 2..4, where r is subnormal, then fall like 10^(-0.6z)
    "10^(z-312)": lambda: ini("10^(z-312)", "1", "5/3", 1, "delay_plus_one"),
    # example 1 scaled by 2^(-660): r^(-1/alpha) = 2^(1980 - z) overflows at zeta0
    "example1-2^(-660)": lambda: ini("2^(z/3)*2^(-660)", "2*2^z*2^(-660)", "1/3", 1, "delay"),
    # a divergent Thm21 series whose second term overflows: one finite term decides nothing
    "1e-300-q-1e10": lambda: ini("1e-300", "1e10", 1, 1, "delay"),
    "example1-horizon-1000": lambda: ini("2^(z/3)", "2.0*2^z", "1/3", 1, "delay",
                                         closed_form="2^(1-z)", horizon=1000),
    "example1": lambda: ini("2^(z/3)", "2.0*2^z", "1/3", 1, "delay", closed_form="2^(1-z)"),
    # a closed form 5e-4 off theta(1) = 1, and one with a pole at zeta0
    "readme-form-1.0005/z": lambda: readme_ini().replace('"1/z"', '"1.0005/z"'),
    "readme-form-pole": lambda: readme_ini().replace('"1/z"', '"1/(z-1)"'),
    "r-2^z-sigma-4": lambda: ini("2^z", "1", 1, 4, "delay_plus_one"),
    "sigma-5-delay": lambda: ini("(z*(z+1))^(5/3)", "z^(2/3)", "5/3", 5, "delay", zeta0=6),
    "10^z": lambda: ini("10^z", "10^z", 1, 1, "delay_plus_one"),
    "zero-q": lambda: ini("z*(z+1)", "0", 1, 1, "delay_plus_one"),
    "negative-q": lambda: ini("2^z", "1-z", 1, 2, "delay_plus_one"),
    "alpha-1/3-plus-one": lambda: ini("2^z", "1", "1/3", 1, "delay_plus_one"),
    # theta(0) needs r(0) = 0 > 0
    "shifted-theta-below-domain": lambda: ini("z*(z+1)", "1", 1, 2, "delay_plus_one"),
    # theta(1) = 4.9e13, and its power alpha - 1 = 24 passes the float range
    "theta-power-overflows": lambda: ini("(1e-12*1.0204^z)^25", "1", 25, 1, "delay_plus_one"),
    # the delay form at alpha = 1
    "r-z-q-1/z-delay": lambda: ini("z", "1/z", 1, 1, "delay"),
    "r-z-minus-5-delay": lambda: ini("z-5", "1", 1, 1, "delay"),
    "euler-delay-sigma-2": lambda: ini("z*(z+1)", "0.3", 1, 2, "delay", zeta0=3),
    # no [check] and no [simulate]: every stage reads [check]'s defaults
    "readme-equation-only": lambda: readme_ini().split("[simulate]")[0],
    # block minima near 10^8 fall by less than TREND_TOL, but r's expansion proves the
    # terms' exponent 3/2: classify was canonical
    "r-0.5z^(3/2)-zeta0-1e8": lambda: ini("0.5*z^(3/2)", "1", 1, 1, "delay_plus_one",
                                           zeta0=10 ** 8),
    # pow with a literal exponent expands as ^: theta was 4.2e-4 off at z = 70 000
    "pow-r": lambda: ini("pow(z*(z+4), 2)", "(z^2-1)*z^2", 1, 2, "delay_plus_one"),
    # trajectories that leave iterate's first block of 1024 steps: x overflows at 1263,
    # and r(2000) = 0 stops the run at 2000
    "runaway-horizon-3000": lambda: ini("1", "0-1", 1, 1, "delay", horizon=3000) + RUNAWAY_INIT,
    "r-2000-z-horizon-3000": lambda: ini("2000-z", "1", 1, 1, "delay", horizon=3000) + RUNAWAY_INIT,
}

CH, NS, NF, IN = "certified_holds", "numerically_suggested", "numerically_fails", "inconclusive"


def verdicts(thm21, thm22a, thm22b, lem21, thm23):
    return f"Thm21={thm21} Thm22A={thm22a} Thm22B={thm22b} Lem21={lem21} Thm23={thm23}"


THETA_ERRORS = "error:check:Thm22A error:check:Thm22B error:check:Thm23"
ALL_CHECK_ERRORS = ("error:check:Thm21 error:check:Thm22A error:check:Thm22B error:check:Lem21 "
                    "error:check:Thm23")

EXPECTED = {
    "readme": ("0", "0 non_canonical", f"0 {verdicts(CH, NS, CH, CH, NS)}",
               "0 CanonicalSumQ=certified_holds"),
    "bench-family": ("0", "0 inconclusive", f"0 {verdicts(CH, NS, CH, CH, NS)}",
                     "0 CanonicalSumQ=certified_holds"),
    "delay-form": ("0", "0 non_canonical", f"0 {verdicts(CH, CH, CH, CH, NS)}",
                   "2 error:transform"),
    "r-z": ("0", "0 inconclusive", f"0 {verdicts(CH, IN + '+1', IN + '+1', CH, IN + '+1')}",
            "2 error:transform"),
    "r-z-minus-5": ("0 H1@1", "2 H1@1 error:classify",
                    "2 H1@1 error:check:Thm21 error:check:Thm22A error:check:Thm22B "
                    "error:check:Lem21 error:check:Thm23", "2 H1@1 error:transform"),
    "r-z^(3/2)-form-1/z": ("0", "2 error:classify", f"2 Thm21={NS} Lem21={CH} {THETA_ERRORS}",
                           "2 error:transform"),
    "r-2^z-sigma-3": ("0", "0 non_canonical", f"0 {verdicts(NF, NF, NF, CH, NF)}",
                      "0 CanonicalSumQ=numerically_fails"),
    # Thm22A was certified_holds on the overflowed terms
    "1e-200*2^z": ("0", "0 non_canonical", f"0 {verdicts(NF, IN, IN, CH, NS)}",
                   "2 error:transform"),
    # Thm21 was certified_holds on the overflowed terms
    "10^(z-312)": ("0", "0 non_canonical", f"0 {verdicts(IN, IN, IN, CH, NS)}",
                   "2 error:transform"),
    # classify was canonical: the tail pass read the overflow as divergence
    "example1-2^(-660)": ("0", "2 error:classify", f"2 Thm21={CH} Lem21={NF} {THETA_ERRORS}",
                          "2 error:transform"),
    # Thm21 was certified_holds; a true divergence, lost until terms carry log magnitudes
    "1e-300-q-1e10": ("0", "0 canonical", f"2 Thm21={IN} Lem21={CH} {THETA_ERRORS}",
                      "2 error:transform"),
    "example1-horizon-1000": ("0", "0 non_canonical", f"0 {verdicts(CH, CH, NF, CH, NS)}",
                              "2 error:transform"),
    "example1": ("0", "0 non_canonical", f"0 {verdicts(CH, CH, NF, CH, NS)}", "2 error:transform"),
    "readme-form-1.0005/z": ("0", "2 error:classify", f"2 Thm21={CH} Lem21={CH} {THETA_ERRORS}",
                             "2 error:transform"),
    "readme-form-pole": ("0", "2 error:classify", f"2 Thm21={CH} Lem21={CH} {THETA_ERRORS}",
                         "2 error:transform"),
    "r-2^z-sigma-4": ("0", "0 non_canonical", f"0 {verdicts(NF, NF, NF, CH, NF)}",
                      "0 CanonicalSumQ=numerically_fails"),
    "sigma-5-delay": ("0", "0 inconclusive", f"0 {verdicts(NS, NF, NF, CH, NF)}", "2 error:transform"),
    "10^z": ("0", "0 non_canonical", f"0 {verdicts(CH, NF, NF, CH, NF)}",
             "0 CanonicalSumQ=numerically_fails"),
    "zero-q": ("0 H2@None", "0 H2@None inconclusive", f"0 H2@None {verdicts(NF, NF, NF, NF, NF)}",
               "0 H2@None CanonicalSumQ=numerically_fails"),
    "negative-q": ("0 H2@2", "0 H2@2 non_canonical",
                   "2 H2@2 error:check:Thm21 error:check:Thm22A error:check:Thm22B "
                   "error:check:Lem21 error:check:Thm23", "2 H2@2 error:transform"),
    "alpha-1/3-plus-one": ("0", "0 non_canonical", f"0 {verdicts(NF, NF, NF, CH, NF)}",
                           "2 error:transform"),
    "shifted-theta-below-domain": ("0", "0 inconclusive", f"0 {verdicts(NS, NF, NF, CH, NF)}",
                                   "2 error:transform"),
    "theta-power-overflows": ("0", "0 non_canonical", f"0 {verdicts(NF, IN, IN, CH, NS)}",
                              "2 error:transform"),
    "r-z-q-1/z-delay": ("0", "0 inconclusive",
                        f"0 {verdicts(NS, IN + '+1', IN + '+1', NS, IN + '+1')}",
                        "2 error:transform"),
    "r-z-minus-5-delay": ("0 H1@1", "2 H1@1 error:classify",
                          "2 H1@1 error:check:Thm21 error:check:Thm22A error:check:Thm22B "
                          "error:check:Lem21 error:check:Thm23", "2 H1@1 error:transform"),
    # transform exited 2: "the transform applies to the z - sigma + 1 delay form"
    "euler-delay-sigma-2": ("0", "0 inconclusive", f"0 {verdicts(NS, NF, NF, CH, NF)}",
                            "0 CanonicalSumQ=numerically_fails"),
    "readme-equation-only": ("0", "0 non_canonical", f"0 {verdicts(CH, NS, CH, CH, NS)}",
                             "0 CanonicalSumQ=certified_holds"),
    # classify was canonical, and Thm22A, Thm22B and Thm23 were errors (NonConvergentError)
    "r-0.5z^(3/2)-zeta0-1e8": ("0", "0 inconclusive",
                               f"0 {verdicts(CH, IN + '+1', IN + '+1', CH, IN + '+1')}",
                               "2 error:transform"),
    "pow-r": ("0", "0 inconclusive", f"0 {verdicts(CH, NF, NF, CH, NS)}",
              "0 CanonicalSumQ=numerically_fails"),
    "runaway-horizon-3000": ("0 H2@1", "0 H2@1 canonical", f"2 H2@1 {ALL_CHECK_ERRORS}",
                             "2 H2@1 error:transform"),
    "r-2000-z-horizon-3000": ("0 H1@2000", "2 H1@2000 error:classify",
                              f"2 H1@2000 {ALL_CHECK_ERRORS}", "2 H1@2000 error:transform"),
}


def outline(code: int, report: dict) -> str:
    stages, words = report["stages"], [str(code)]
    words += [f"{v['hypothesis']}@{v['index']}" for v in stages["validate"]["violations"]]
    if "classify" in stages:
        words.append(stages["classify"]["form"])
    checked = list(stages.get("check", {}).get("verdicts", ()))
    if "transform" in stages:
        checked.append(stages["transform"]["sumq_verdict"])
    words += [f"{v['criterion']}={v['status']}" + (f"+{len(v['flags'])}" if v["flags"] else "")
              for v in checked]
    if "simulate" in stages:
        simulate = stages["simulate"]
        words.append(simulate["status"]["kind"])
        words.append((simulate["classification"] or {"kind": "unclassified"})["kind"])
    words += [f"error:{e['stage']}" for e in report["errors"]]
    return " ".join(words)


def run(tmp_path, name: str, command: str, *extra: str) -> tuple:
    config, out = tmp_path / "eq.ini", tmp_path / f"{command}.json"
    config.write_text(CONFIGS[name]())
    code = main([command, "--config", str(config), "--out", str(out), "--quiet", *extra])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_outline(tmp_path, name):
    got = tuple(outline(*run(tmp_path, name, command)) for command in COMMANDS)
    assert got == EXPECTED[name]


# the configs with a [simulate] section, and the outline of their simulate report
# at the run's horizon, at --horizon 7 and at --horizon 1000
SIMULATE_HORIZONS = ((), ("--horizon", "7"), ("--horizon", "1000"))
WITNESS = "0 completed oscillatory_witness"
SIMULATE_EXPECTED = {
    "readme": (WITNESS,) * 3,
    # simulate reads no theta: the closed form is checked by the stages that read it
    "readme-form-1.0005/z": (WITNESS,) * 3,
    "readme-form-pole": (WITNESS,) * 3,
    "runaway-horizon-3000": ("0 H2@1 overflowed eventually_positive",
                             "0 H2@1 completed eventually_positive",
                             "0 H2@1 completed eventually_positive"),
    "r-2000-z-horizon-3000": ("0 H1@2000 domain_error oscillatory_witness",
                              "0 completed eventually_positive", "0 completed oscillatory_witness"),
}


def test_simulate_outline(tmp_path):
    simulated = [name for name, build in CONFIGS.items() if "[simulate]" in build()]
    assert simulated == list(SIMULATE_EXPECTED)
    for name in simulated:
        got = tuple(outline(*run(tmp_path, name, "simulate", *extra)) for extra in SIMULATE_HORIZONS)
        assert got == SIMULATE_EXPECTED[name]


def test_witness_before_the_overflow(tmp_path):
    # example 1's Thm21 terms overflow from z = 511: the witness is found on the finite prefix
    _, report = run(tmp_path, "example1-horizon-1000", "check")
    thm21 = report["stages"]["check"]["verdicts"][0]
    assert (thm21["criterion"], thm21["status"]) == ("Thm21", CH)
    assert thm21["probe"]["witness_onset"] == 385


def test_overflowed_tail_term_names_its_index(tmp_path):
    # the tail pass refuses the term 2^1979 as it refuses a theta past the float range
    code, report = run(tmp_path, "example1-2^(-660)", "classify")
    assert code == 2 and "classify" not in report["stages"]
    assert report["errors"] == [{"stage": "classify", "error": "r^(-1/alpha) not finite at index 1"}]


@pytest.mark.parametrize("name, error", [
    # the first two said "the transform applies to the z - sigma + 1 delay form" until
    # the delay form was transformed at alpha = 1
    ("r-z-q-1/z-delay", "theta could not be certified finite; transform unavailable"),
    ("r-z-minus-5-delay", "r(1) is not positive"),
    # both said "the transform applies to the z - sigma + 1 delay form" until the
    # alpha condition was checked first and the delay form's refusal named alpha
    ("delay-form", "the transform requires alpha >= 1, got 1/3"),
    ("sigma-5-delay", "the transform applies to the delay form only at alpha = 1, got 5/3"),
    # the comparison equation goes through the criteria's hypothesis check
    ("negative-q", "hypothesis H2 violated: q(2) = -0.25 < 0"),
])
def test_transform_error_text(tmp_path, name, error):
    code, report = run(tmp_path, name, "transform")
    assert (code, report["errors"]) == (2, [{"stage": "transform", "error": error}])


def test_delay_form_at_alpha_one_transforms(tmp_path):
    # theta = 1/z, so rt = 1 and qt(z) = theta(z+1) theta(z-2) 0.3 = 0.3/((z+1)(z-2))
    code, report = run(tmp_path, "euler-delay-sigma-2", "transform")
    stage = report["stages"]["transform"]
    assert code == 0 and stage["sumq_verdict"]["status"] == NF
    for (z, rt), (_, qt) in zip(stage["r_tilde_samples"], stage["q_tilde_samples"]):
        assert rt == pytest.approx(1.0, rel=1e-9)
        assert qt == pytest.approx(0.3 / ((z + 1) * (z - 2)), rel=1e-9)


def test_transform_at_horizon_seven(tmp_path):
    # the tables reach zeta0 + 7, the window the hypothesis check reads; the sum reads 7 terms
    code, report = run(tmp_path, "readme", "transform", "--horizon", "7")
    stage = report["stages"]["transform"]
    assert code == 0 and len(stage["r_tilde_samples"]) == 7
    assert stage["sumq_verdict"]["status"] == IN and len(stage["sumq_verdict"]["evidence"]) == 7


def _corpus_tool():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"
    spec = importlib.util.spec_from_file_location("report_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("old, new, kinds, moves", [
    ('{\n  "value": 0.5,\n  "method": "poly_tail"\n}\nexit 0\n',
     '{\n  "value": 0.25,\n  "method": "poly_tail"\n}\nexit 0\n', set(), {"value": 0.5}),
    ('{\n  "samples": [\n    1.0,\n    2.0\n  ]\n}\nexit 0\n',
     '{\n  "samples": [\n    1.0,\n    3.0\n  ]\n}\nexit 0\n', set(), {"samples": 1 / 3}),
    ('{\n  "status": "holds",\n  "value": 1\n}\nexit 0\n',
     '{\n  "status": "inconclusive",\n  "value": 1\n}\nexit 2\n', {"status", "exit code"}, {}),
    ('{\n  "method": "max_terms"\n}\nexit 0\n', '{\n  "method": "poly_tail",\n  "x": 1\n}\nexit 0\n',
     {"method", "other text (x)"}, {}),
    ("criterion_id,zeta,term\nThm21,1,0.5\nexit 0\n", "criterion_id,zeta,term\nThm21,1,0.75\nexit 0\n",
     set(), {"term": 1 / 3}),
    ("criterion_id,zeta,term\nThm21,1,0.5\nexit 0\n", "criterion_id,zeta,term\nThm22,1,0.5\nexit 0\n",
     {"other text (criterion_id)", "other text (zeta)", "other text (term)"}, {}),
], ids=["json-digits", "array-item", "status-and-exit", "method", "csv-digits", "csv-name"])
def test_corpus_diff_tells_digits_from_other_moves(old, new, kinds, moves):
    got_kinds, got_moves = _corpus_tool().compare(old, new)
    assert got_kinds == kinds
    assert got_moves == pytest.approx(moves)


def test_corpus_diff_of_long_reports_reads_only_the_changed_middle():
    # 30 000 lines that mask alike around one status that moved: a line diff over all of
    # them is quadratic in the repeated lines (minutes), the changed middle alone is not
    def report(status):
        return ('{\n  "samples": [\n' + "".join(f"    {z / 7},\n" for z in range(14996))
                + f'  ],\n  "status": "{status}",\n  "evidence": [\n'
                + "".join(f"    {z * 3.5},\n" for z in range(14996)) + "  ]\n}\nexit 0\n")
    old, new = report("holds"), report("inconclusive")
    assert old.count("\n") == new.count("\n") == 30000
    compare = _corpus_tool().compare
    t0 = time.perf_counter()
    kinds, moves = compare(old, new)
    assert time.perf_counter() - t0 < 1.0
    assert (kinds, moves) == ({"status"}, {})
