"""The three seeded workloads: input generation, one op each, output checks.

Every op goes through the program's public entry points: `cli.main` argv
for the subcommands, and `iterate` / `classify_trajectory` / `residual`
for simulation.  Calls go through module attributes (`cli.main`,
`oscdelay.iterate`, ...) rather than names imported here, so the traced
run sees them once `tracing.Tracer.install` has rebound those attributes.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
import time

import reference as ref

WORKLOADS = ("poly_tail_check", "examples_sweep", "long_horizon_scalar")

# Why each workload is in the benchmark; BENCHMARK.json repeats these lines.
WHY = {
    "poly_tail_check": (
        "check + transform on fresh (z*(z+c))^(5/3) equations with no closed form: "
        "nearly all time is 201 numeric tail sums theta over a horizon of 200"
    ),
    "examples_sweep": (
        "worked examples 1-3 with a lambda0 sweep: closed-form theta cross-checked "
        "on short geometric tails, the transform, r shared across ops"
    ),
    "long_horizon_scalar": (
        "8 trajectories to 5000 plus Thm21,Lem21 CSV at horizon 20000: scalar "
        "coefficient loops, theta never called (bypasses the tail-sum layer)"
    ),
}

# Upper bound on ops per run; one op takes seconds, so it is never reached.
MAX_OPS = 64

SIM_HORIZON = 5000
SIM_RUNS = 8
CSV_HORIZON = 20_000

# Verdict statuses oscdelay 0.1.0 reports on every input of each family.
POLY_CHECK_STATUSES = {
    "Thm21": "certified_holds",
    "Thm22A": "numerically_suggested",
    "Thm22B": "certified_holds",
    "Lem21": "certified_holds",
    "Thm23": "numerically_suggested",
}
EXAMPLE_STATUSES = {
    1: {"Thm21": "certified_holds", "Thm23": "numerically_suggested"},
    2: {"Thm22B": "certified_holds"},
    3: {"CanonicalSumQ": "certified_holds"},
}

# Relative tolerances: against the stdlib references (tail sums, residuals,
# long sums), and for values the program computes in a few float operations.
REF_RTOL = 1e-9
FLOAT_RTOL = 1e-12

_POLY_INI = """\
[equation]
r = "(z*(z+{c!r}))^(5/3)"
q = "{k!r}*(z^2-1)*z^(2/3)"
alpha = 5/3
sigma = 2
form = delay_plus_one
zeta0 = 1
"""

_POLY_CHECK_SECTIONS = """
[check]
criteria = all
horizon = 200

[output]
format = json
"""


def make_inputs(workload: str, seed: int) -> list:
    """Write the op inputs for (workload, seed) into the working directory; return one spec per op.

    Paths stay relative, so the reports, which echo them, do not depend on
    where the worker runs.
    """
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for i in range(MAX_OPS):
        spec = {"index": i}
        if workload == "examples_sweep":
            spec["lambda0"] = rng.uniform(0.25, 4.0)
        else:
            spec["c"] = rng.uniform(0.5, 4.0)
            spec["k"] = rng.uniform(0.5, 3.0)
            text = _POLY_INI.format(c=spec["c"], k=spec["k"])
            if workload == "poly_tail_check":
                text += _POLY_CHECK_SECTIONS
            else:
                spec["inits"] = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(SIM_RUNS)]
            spec["config"] = f"op{i:02d}.ini"
            with open(spec["config"], "w", encoding="utf-8") as handle:
                handle.write(text)
        specs.append(spec)
    return specs


def run_op(workload: str, spec: dict) -> tuple:
    """Run one op; return (seconds spent in the program, outputs to check)."""
    import oscdelay
    from oscdelay import cli, config

    outputs = {"rc": []}
    t0 = time.perf_counter()
    if workload == "poly_tail_check":
        for command in ("check", "transform"):
            outputs["rc"].append(
                cli.main([command, "--config", spec["config"], "--out", f"{command}.json", "--quiet"])
            )
    elif workload == "examples_sweep":
        for n in (1, 2, 3):
            extra = ["--lambda0", repr(spec["lambda0"])] if n == 1 else []
            outputs["rc"].append(
                cli.main(["example", str(n), *extra, "--horizon", "200", "--format", "json",
                          "--out", f"example{n}.json", "--quiet"])
            )
    else:
        eq = config.parse_config(spec["config"]).build_equation()
        runs = []
        for values in spec["inits"]:
            traj = oscdelay.iterate(
                eq, oscdelay.InitialData.for_equation(eq, values), eq.zeta0 + SIM_HORIZON
            )
            kind = oscdelay.classify_trajectory(traj).kind.value
            res = oscdelay.residual(eq, traj.as_sequence(), eq.zeta0, traj.end_index - 2)
            runs.append((traj, kind, res))
        outputs["rc"].append(
            cli.main(["check", "--config", spec["config"], "--criterion", "Thm21,Lem21",
                      "--horizon", str(CSV_HORIZON), "--format", "csv",
                      "--out", "check.csv", "--quiet"])
        )
        outputs["zeta0"] = eq.zeta0
        outputs["runs"] = runs
    seconds = time.perf_counter() - t0

    files = {
        "poly_tail_check": ("check.json", "transform.json"),
        "examples_sweep": ("example1.json", "example2.json", "example3.json"),
        "long_horizon_scalar": ("check.csv",),
    }[workload]
    for name in files:
        with open(name, encoding="utf-8") as handle:
            outputs[name] = handle.read()
    return seconds, outputs


_GENERATED_AT = re.compile(r'^\s*"generated_at": .*$', re.MULTILINE)


def digest(outputs: dict) -> str:
    """Hash of everything the op produced, minus the report timestamps."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        if key == "runs":
            value = [(traj.status.kind.value, traj.x, kind, res) for traj, kind, res in value]
        text = value if isinstance(value, str) else repr(value)
        h.update(key.encode())
        h.update(_GENERATED_AT.sub("", text).encode())
    return h.hexdigest()


def check_op(workload: str, spec: dict, outputs: dict) -> list:
    """Compare one op's outputs with independent references; return the problems."""
    problems = [f"exit code {rc}" for rc in outputs["rc"] if rc != 0]
    if problems:
        return problems
    if workload == "poly_tail_check":
        return _check_poly(spec, json.loads(outputs["check.json"]), json.loads(outputs["transform.json"]))
    if workload == "examples_sweep":
        return _check_examples(spec, [json.loads(outputs[f"example{n}.json"]) for n in (1, 2, 3)])
    return _check_long(spec, outputs)


def _statuses(verdicts) -> dict:
    return {v["criterion"]: v["status"] for v in verdicts}


def _check_poly(spec, check, transform) -> list:
    problems = [f"report errors {r['errors']}" for r in (check, transform) if r["errors"]]
    verdicts = check["stages"]["check"]["verdicts"]
    if _statuses(verdicts) != POLY_CHECK_STATUSES:
        problems.append(f"check statuses {_statuses(verdicts)}")
    c, k = spec["c"], spec["k"]
    theta = ref.poly_theta(c, 201)
    by_id = {v["criterion"]: v for v in verdicts}
    worst = 0.0
    # Thm22B term = q(s) theta(s+1)^(8/3); Thm23 running value = theta(z)^(5/3) * partial sum
    for row in by_id["Thm22B"]["evidence"]:
        qs = ref.poly_q(k, row["zeta"])
        if qs > 0:
            worst = max(worst, ref.rel_err((row["term"] / qs) ** (3 / 8), theta[row["zeta"] + 1]))
    for row in by_id["Thm23"]["evidence"]:
        if row["partial_sum"] > 0:
            worst = max(worst, ref.rel_err((row["running_value"] / row["partial_sum"]) ** (3 / 5),
                                           theta[row["zeta"]]))
    if not worst <= REF_RTOL:
        problems.append(f"theta in Thm22B/Thm23 evidence off by {worst:.3g} relative")

    stage = transform["stages"]["transform"]
    if stage["sumq_verdict"]["status"] != "certified_holds":
        problems.append(f"transform sumq status {stage['sumq_verdict']['status']}")
    # r_tilde = theta(z) theta(z+1) z(z+c); q_tilde = (3/5) theta(z+1) theta(z)^(2/3) theta(z-1) q(z)
    worst = 0.0
    for z, value in stage["r_tilde_samples"]:
        worst = max(worst, ref.rel_err(value, theta[z] * theta[z + 1] * z * (z + c)))
    for z, value in stage["q_tilde_samples"]:
        if z > 1:
            want = 0.6 * theta[z + 1] * theta[z] ** (2 / 3) * theta[z - 1] * ref.poly_q(k, z)
            worst = max(worst, ref.rel_err(value, want))
    if not worst <= 3 * REF_RTOL:
        problems.append(f"transform coefficients off by {worst:.3g} relative")
    return problems


def _check_examples(spec, reports) -> list:
    problems = []
    for n, report in zip((1, 2, 3), reports):
        if _statuses(report["verdicts"]) != EXAMPLE_STATUSES[n]:
            problems.append(f"example {n} statuses {_statuses(report['verdicts'])}")
    # example 1: theta(3)^(1/3) * (q(1) + q(2)) = 2^(-2/3) * 6 lambda0
    thm23 = next(v for v in reports[0]["verdicts"] if v["criterion"] == "Thm23")
    v3 = next(row["running_value"] for row in thm23["evidence"] if row["zeta"] == 3)
    if not ref.rel_err(v3, 6.0 * spec["lambda0"] * 2.0 ** (-2.0 / 3.0)) <= FLOAT_RTOL:
        problems.append(f"example 1 Thm23 v(3) = {v3}")
    # example 3: the transform gives q_tilde = 4/5, and the report must flag the published 4
    row = next(r for r in reports[2]["stages"]["example"]["comparison"]
               if r["quantity"] == "q_tilde constant value")
    if row["claimed"] != 4 or not ref.rel_err(row["computed"], 0.8) <= FLOAT_RTOL or "flag" not in row:
        problems.append(f"example 3 q_tilde row {row}")
    if not any("4/5" in flag for flag in reports[2]["discrepancy_flags"]):
        problems.append("example 3 lost the q_tilde = 4/5 discrepancy flag")
    return problems


def _check_long(spec, outputs) -> list:
    problems = []
    c, k, z0 = spec["c"], spec["k"], outputs["zeta0"]
    for traj, kind, res in outputs["runs"]:
        if traj.status.kind.value != "completed" or traj.end_index != z0 + SIM_HORIZON:
            problems.append(f"trajectory {traj.status} ending at {traj.end_index}")
            continue
        if kind != "oscillatory_witness":
            problems.append(f"trajectory classified {kind}")
        rel = ref.relative_residual(c, k, traj.start_index, traj.x, z0, traj.end_index - 2, res)
        if not rel <= REF_RTOL:
            problems.append(f"relative residual {rel:.3g}")

    lines = outputs["check.csv"].splitlines()
    if len(lines) != 2 * CSV_HORIZON + 1 or lines[0] != "criterion_id,zeta,term,partial_sum,running_value":
        problems.append(f"CSV has {len(lines)} lines")
        return problems
    last = lines[-1].split(",")
    want = math.fsum(ref.poly_q(k, z) for z in range(z0, z0 + CSV_HORIZON))
    if last[0] != "Lem21" or not ref.rel_err(float(last[3]), want) <= REF_RTOL:
        problems.append(f"last Lem21 row {last} against fsum(q) = {want!r}")
    return problems
