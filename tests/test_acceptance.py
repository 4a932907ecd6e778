"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints its own PASS line on success; the conftest summary echoes a
pass/fail line per criterion at the end of the run.
"""
import math

import numpy as np
import pytest

import oscdelay as od
from oscdelay.criteria import ProbeStatus, VerdictStatus
from oscdelay.equation import _table
from oscdelay.errors import LexError, ParseError
from oscdelay.expr import Binary, Call, Literal, Unary, Var, parse_expression
from oscdelay.power import RationalExponent, signed_pow
from oscdelay.solver import StatusKind, TrajectoryKind


def test_criterion_01_theta_closed_forms():
    """theta matches 1/(z-1) for example 2 on [2, 50] and 1/z for example 3
    on [1, 50], both within 1e-9.  A checked closed form is what theta
    returns, so the numeric tail sum it was checked against is held to the
    same bound."""
    e2 = od.example_equation(2)
    worst2 = max(abs(od.theta(e2, z).value - 1.0 / (z - 1.0)) for z in range(2, 51))
    assert worst2 <= 1e-9
    num2 = max(abs(_table(e2).lookup(z)[0].value - 1.0 / (z - 1.0)) for z in range(2, 51))
    assert num2 <= 1e-9

    e3 = od.example_equation(3)
    worst3 = max(abs(od.theta(e3, z).value - 1.0 / z) for z in range(1, 51))
    assert worst3 <= 1e-9
    num3 = max(abs(_table(e3).lookup(z)[0].value - 1.0 / z) for z in range(1, 51))
    assert num3 <= 1e-9
    print(f"ACCEPTANCE 1: PASS (theta errors {worst2:.2e}, {worst3:.2e}; "
          f"numeric tail sums {num2:.2e}, {num3:.2e})")


def test_criterion_02_example3_transform():
    """Example 3 transform: r_tilde = 1 within 1e-12 on [1, 100]; q_tilde
    constant within 1e-9 and equal to 4/5 within 1e-9; the reproduction
    report flags the mismatch with the published value 4."""
    ceq = od.to_canonical(od.example_equation(3), 100)
    rt_err = max(abs(ceq.r(z) - 1.0) for z in range(1, 101))
    assert rt_err <= 1e-12

    qt = [ceq.q(z) for z in range(2, 101)]
    spread = max(abs(v - qt[0]) for v in qt)
    assert spread <= 1e-9
    assert abs(qt[0] - 4.0 / 5.0) <= 1e-9

    rep = od.reproduce_example(3)
    assert any("4/5" in flag for flag in rep["discrepancy_flags"])
    print(f"ACCEPTANCE 2: PASS (r_tilde err {rt_err:.2e}, q_tilde {qt[0]!r}, flagged)")


def test_criterion_03_exhibited_solution():
    """(-1)^z solves the comparison equation with r_tilde = 1, q_tilde = 4,
    sigma = 2: residual <= 1e-12 over [3, 100]."""
    ceq = od.HalfLinearEquation(
        r=od.Sequence.from_expression("1"),
        q=od.Sequence.from_expression("4"),
        alpha=RationalExponent(1, 1),
        sigma=2,
        delay_form=od.DelayForm.MINUS_SIGMA_PLUS_ONE,
        zeta0=1,
    )
    alternating = od.Sequence.from_table(1, [(-1.0) ** z for z in range(1, 102)])
    res = od.canonical_residual(ceq, alternating, 3, 100)
    assert res <= 1e-12
    print(f"ACCEPTANCE 3: PASS (residual {res:.2e})")


def test_criterion_04_example2_unit_terms():
    """Every example 2 series term q(s) theta^(alpha+1)(s+1) equals 1 within
    1e-9 for s in [2, 200] and the verdict is certified divergent."""
    v = od.evaluate_criterion("Thm22B", od.example_equation(2), 200)
    worst = max(abs(row.term - 1.0) for row in v.evidence)
    assert worst <= 1e-9
    assert {row.zeta for row in v.evidence} == set(range(2, 202))
    assert v.probe.status is ProbeStatus.CERTIFIED_DIVERGES
    assert v.status is VerdictStatus.CERTIFIED_HOLDS
    print(f"ACCEPTANCE 4: PASS (term err {worst:.2e}, certified diverges)")


def test_criterion_05_example1_lambda_two():
    """Example 1 with lambda0 = 2: the limsup running value at index 3 equals
    12 * 2^(-2/3) within 1e-9, exceeds 1 by index 3, and both the limsup
    criterion and the oscillate-or-vanish criterion hold."""
    eq = od.example_equation(1, lambda0=2.0)
    v23 = od.evaluate_criterion("Thm23", eq, 200)
    row3 = next(r for r in v23.evidence if r.zeta == 3)
    want = 12.0 * 2.0 ** (-2.0 / 3.0)
    assert abs(row3.running_value - want) <= 1e-9
    early = [r.running_value for r in v23.evidence if r.zeta <= 3]
    assert max(early) > 1.0
    assert v23.holds

    v21 = od.evaluate_criterion("Thm21", eq, 200)
    assert v21.holds
    print(f"ACCEPTANCE 5: PASS (v(3) = {row3.running_value!r}, both verdicts hold)")


def test_criterion_06_manufactured_solution():
    """Iterating r = 1, alpha = 1, sigma = 1, q = 4 from (-1, 1, -1)
    reproduces (-1)^z to 1e-12 over 50 steps, with residual <= 1e-12."""
    eq = od.HalfLinearEquation(
        r=od.Sequence.from_expression("1"),
        q=od.Sequence.from_expression("4"),
        alpha=RationalExponent(1, 1),
        sigma=1,
        delay_form=od.DelayForm.MINUS_SIGMA,
        zeta0=0,
    )
    init = od.InitialData.for_equation(eq, [-1.0, 1.0, -1.0])
    traj = od.iterate(eq, init, 50)
    assert traj.status.kind is StatusKind.COMPLETED
    dev = max(
        abs(traj.x_at(z) - (-1.0) ** z) for z in range(traj.start_index, traj.end_index + 1)
    )
    assert dev <= 1e-12
    res = od.residual(eq, traj.as_sequence(), eq.zeta0, traj.end_index - 2)
    assert res <= 1e-12
    print(f"ACCEPTANCE 6: PASS (max deviation {dev:.2e}, residual {res:.2e})")


def test_criterion_07_no_spurious_one_signed_trajectories():
    """200 seeded random initial data draws for example 1 (lambda0 = 2) over
    horizon 40: no completed trajectory classifies one-signed with a tail
    bounded away from zero; every run lands in an expected class."""
    eq = od.example_equation(1, lambda0=2.0)
    rng = np.random.default_rng(20260823)
    allowed = {
        TrajectoryKind.OSCILLATORY_WITNESS,
        TrajectoryKind.TENDS_TO_ZERO,
        TrajectoryKind.INCONCLUSIVE,
    }
    inconclusive = 0
    for _ in range(200):
        values = rng.uniform(-1.0, 1.0, size=3)
        init = od.InitialData.for_equation(eq, values)
        traj = od.iterate(eq, init, 40)
        if traj.status.kind is not StatusKind.COMPLETED:
            assert traj.status.kind is StatusKind.OVERFLOWED
            continue
        cls = od.classify_trajectory(traj, tol=1e-6)
        if cls.kind in (
            TrajectoryKind.EVENTUALLY_POSITIVE,
            TrajectoryKind.EVENTUALLY_NEGATIVE,
        ):
            tail = traj.x[-max(8, len(traj.x) // 4):]
            assert min(abs(v) for v in tail) <= 1e-6
        else:
            assert cls.kind in allowed
        if cls.kind is TrajectoryKind.INCONCLUSIVE:
            inconclusive += 1
    frac = inconclusive / 200.0
    assert frac < 0.25
    print(f"ACCEPTANCE 7: PASS (inconclusive fraction {frac:.3f})")


def test_criterion_08_homogeneity():
    """50 seeded random (equation, candidate, scale) triples with alpha in
    {1/3, 1, 5/3}: the equation's left side scales by signed_pow(c, alpha)
    within 1e-9 relative."""
    rng = np.random.default_rng(8)
    alphas = [RationalExponent(1, 3), RationalExponent(1, 1), RationalExponent(5, 3)]
    for trial in range(50):
        alpha = alphas[trial % 3]
        sigma = int(rng.integers(0, 3))
        n = 30
        r_vals = rng.uniform(0.5, 3.0, size=n + 3)
        q_vals = rng.uniform(0.0, 2.0, size=n + 3)
        x_vals = rng.uniform(-2.0, 2.0, size=n + sigma + 4)
        c = float(rng.uniform(-3.0, 3.0)) or 1.0
        eq = od.HalfLinearEquation(
            r=od.Sequence.from_table(0, r_vals),
            q=od.Sequence.from_table(0, q_vals),
            alpha=alpha,
            sigma=sigma,
            delay_form=od.DelayForm.MINUS_SIGMA,
            zeta0=sigma,
        )
        cand = od.Sequence.from_table(-sigma, x_vals)
        scaled = od.Sequence.from_table(-sigma, c * x_vals)
        base = od.residual_pointwise(eq, cand, sigma, n)
        got = od.residual_pointwise(eq, scaled, sigma, n)
        factor = signed_pow(c, alpha)
        for (_, lhs), (_, lhs_c) in zip(base, got):
            assert abs(lhs_c - factor * lhs) <= 1e-9 * max(1.0, abs(factor * lhs))
    print("ACCEPTANCE 8: PASS (50 homogeneity triples within 1e-9 relative)")


def test_criterion_09_signed_pow_round_trip():
    """10^4 seeded draws t in [-1e6, 1e6] with alpha in {1/3, 3/5, 1, 5/3,
    7/3}: applying the power then its reciprocal returns t within
    1e-9 * max(1, |t|)."""
    rng = np.random.default_rng(9)
    exps = [
        RationalExponent(1, 3),
        RationalExponent(3, 5),
        RationalExponent(1, 1),
        RationalExponent(5, 3),
        RationalExponent(7, 3),
    ]
    ts = rng.uniform(-1e6, 1e6, size=10_000)
    worst = 0.0
    for i, t in enumerate(ts):
        e = exps[i % 5]
        back = signed_pow(signed_pow(float(t), e), e.reciprocal())
        err = abs(back - t) / max(1.0, abs(t))
        worst = max(worst, err)
        assert err <= 1e-9
    print(f"ACCEPTANCE 9: PASS (worst relative error {worst:.2e})")


def test_criterion_10_conservation_identity():
    """R(z) + theta(z) = theta(zeta0) within 1e-9 relative for all three
    example equations, z in [zeta0 + 1, 50]."""
    worst = 0.0
    for n in (1, 2, 3):
        eq = od.example_equation(n)
        total = od.theta(eq, eq.zeta0).value
        for z in range(eq.zeta0 + 1, 51):
            got = od.R_partial(eq, z) + od.theta(eq, z).value
            err = abs(got - total) / abs(total)
            worst = max(worst, err)
            assert err <= 1e-9
    print(f"ACCEPTANCE 10: PASS (worst relative error {worst:.2e})")


GOLDEN_TREES = [
    ("2^(z/3)", Binary("^", Literal(2.0), Binary("/", Var(), Literal(3.0)))),
    (
        "2.0*2^z",
        Binary("*", Literal(2.0), Binary("^", Literal(2.0), Var())),
    ),
    (
        "(z*(z-1))^(1/3)",
        Binary(
            "^",
            Binary("*", Var(), Binary("-", Var(), Literal(1.0))),
            Binary("/", Literal(1.0), Literal(3.0)),
        ),
    ),
    ("z^(4/3)", Binary("^", Var(), Binary("/", Literal(4.0), Literal(3.0)))),
    (
        "(z*(z+1))^(5/3)",
        Binary(
            "^",
            Binary("*", Var(), Binary("+", Var(), Literal(1.0))),
            Binary("/", Literal(5.0), Literal(3.0)),
        ),
    ),
    (
        "4*(z^2-1)*z^(2/3)/3",
        Binary(
            "/",
            Binary(
                "*",
                Binary(
                    "*",
                    Literal(4.0),
                    Binary("-", Binary("^", Var(), Literal(2.0)), Literal(1.0)),
                ),
                Binary("^", Var(), Binary("/", Literal(2.0), Literal(3.0))),
            ),
            Literal(3.0),
        ),
    ),
    ("2*z+1", Binary("+", Binary("*", Literal(2.0), Var()), Literal(1.0))),
    ("-z^2", Binary("^", Unary("-", Var()), Literal(2.0))),
    ("z^3^2", Binary("^", Var(), Binary("^", Literal(3.0), Literal(2.0)))),
    ("spow(z, 5, 3)", Call("spow", (Var(), Literal(5.0), Literal(3.0)))),
    ("pow(z, 0.5)", Call("pow", (Var(), Literal(0.5)))),
    ("z", Var()),
    ("42", Literal(42.0)),
    ("-z", Unary("-", Var())),
    ("1/(z-1)", Binary("/", Literal(1.0), Binary("-", Var(), Literal(1.0)))),
    ("1/z", Binary("/", Literal(1.0), Var())),
    (
        "z-1-2",
        Binary("-", Binary("-", Var(), Literal(1.0)), Literal(2.0)),
    ),
    (
        "z/2/3",
        Binary("/", Binary("/", Var(), Literal(2.0)), Literal(3.0)),
    ),
    (
        "2^(1-z)",
        Binary("^", Literal(2.0), Binary("-", Literal(1.0), Var())),
    ),
    (
        "spow(-8, 1, 3)",
        Call("spow", (Unary("-", Literal(8.0)), Literal(1.0), Literal(3.0))),
    ),
]


def test_criterion_11_parser_totality_and_goldens():
    """A seeded 10^5-case fuzz corpus parses without crashing (only
    positioned lexer/parser errors allowed) and 20+ golden parse trees,
    including all example coefficient formulas, match exactly."""
    assert len(GOLDEN_TREES) >= 20
    for text, tree in GOLDEN_TREES:
        assert parse_expression(text) == tree, text

    rng = np.random.default_rng(11)
    alphabet = np.array(list("z0123456789+-*/^(), .spowe_"))
    crashes = 0
    for i in range(100_000):
        length = int(rng.integers(0, 24)) if i % 50 else int(rng.integers(100, 2000))
        chars = alphabet[rng.integers(0, len(alphabet), size=length)]
        text = "".join(chars)
        try:
            parse_expression(text)
        except (LexError, ParseError):
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    print("ACCEPTANCE 11: PASS (100000 fuzz cases, 21 golden trees)")
