"""Built-in example equations and their reproduction reports.

Three published worked examples ship with the package, each with a
registered closed form for the tail sum theta:

  1.  r(z) = 2^(z/3),          q(z) = lambda0 * 2^z,        alpha = 1/3, sigma = 1
  2.  r(z) = (z*(z-1))^(1/3),  q(z) = z^(4/3),              alpha = 1/3, sigma = 1
  3.  r(z) = (z*(z+1))^(5/3),  q(z) = 4*(z^2-1)*z^(2/3)/3,  alpha = 5/3, sigma = 2

Example 2 is started at zeta0 = 2 because r(1) = 0 would violate the
positivity hypothesis.  The reproduction for example 3 recomputes the
transformed coefficients from the formula and flags that the computed
constant q_tilde = 4/5 differs from the published value 4, while the
exhibited solution (-1)^z solves the comparison equation only with
q_tilde = 4; all three facts are surfaced in the report.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Optional

from . import criteria
from .criteria import evaluate_criterion
from .equation import DelayForm, HalfLinearEquation, _table, classify_form, validate
from .power import RationalExponent
from .sequences import Sequence
from .transform import canonical_residual, crit_canonical_sumq, to_canonical

# Each example's [equation] section as a config file holds it: r, q, alpha, sigma,
# form, zeta0 and the published theta.  Example 2 starts at 2: r vanishes at 1.
_EXAMPLES = {
    1: ("2^(z/3)", "{lambda0!r}*2^z", "1/3", 1, "delay", 1, "2^(1-z)"),
    2: ("(z*(z-1))^(1/3)", "z^(4/3)", "1/3", 1, "delay", 2, "1/(z-1)"),
    3: ("(z*(z+1))^(5/3)", "4*(z^2-1)*z^(2/3)/3", "5/3", 2, "delay_plus_one", 1, "1/z"),
}


def example_equation(n: int, lambda0: float = 2.0) -> HalfLinearEquation:
    if n not in _EXAMPLES:
        raise ValueError(f"unknown example {n}; choose 1, 2 or 3")
    r, q, alpha, sigma, form, zeta0, theta_text = _EXAMPLES[n]
    return HalfLinearEquation(
        r=Sequence.from_expression(r),
        q=Sequence.from_expression(q.format(lambda0=lambda0)),
        alpha=RationalExponent.parse(alpha),
        sigma=sigma,
        delay_form=DelayForm(form),
        zeta0=zeta0,
        theta_closed_form=Sequence.from_expression(theta_text),
    )


def _theta_error(eq: HalfLinearEquation, zs: range) -> float:
    """max |theta(z) - published theta(z)| over zs, theta the numeric tail sum from
    one window of the equation's table: theta() returns the published value once it
    passes its check."""
    numeric = _table(eq).window(zs.start, len(zs))
    return float(abs(numeric - [eq.theta_closed_form(z) for z in zs]).max())


def _row(quantity: str, claimed, computed, flag: Optional[str] = None) -> dict:
    row = {"quantity": quantity, "claimed": claimed, "computed": computed}
    if claimed is not None and computed is not None and not isinstance(claimed, bool):
        row["abs_diff"] = abs(float(claimed) - float(computed))
    if flag:
        row["flag"] = flag
    return row


def reproduce_example(n: int, lambda0: float = 2.0, horizon: int = criteria.HORIZON) -> dict:
    """Run the stages the worked example exercises and tabulate claimed vs computed."""
    eq = example_equation(n, lambda0)
    report: dict = {
        "example": n,
        "equation": {
            "r": eq.r.describe(),
            "q": eq.q.describe(),
            "alpha": str(eq.alpha),
            "sigma": eq.sigma,
            "form": eq.delay_form.value,
            "zeta0": eq.zeta0,
        },
        "validation": validate(eq, eq.zeta0 + horizon),
        "form_class": classify_form(eq),
        "comparison": [],
        "verdicts": [],
        "discrepancy_flags": [],
    }
    rows: list[dict] = report["comparison"]
    flags: list[str] = report["discrepancy_flags"]

    if n == 1:
        report["lambda0"] = lambda0
        v21 = evaluate_criterion(criteria.THM21, eq, horizon)
        v23 = evaluate_criterion(criteria.THM23, eq, horizon)
        report["verdicts"] = [v21, v23]
        rows.append(_row("Thm21 holds (oscillates or tends to zero)", True, v21.holds))
        rows.append(_row("Thm23 holds (limsup > 1)", True, v23.holds))
        at3 = 3 - eq.zeta0  # the evidence position of index 3
        v3 = v23.evidence.running_value[at3] if at3 < len(v23.evidence) else None
        rows.append(_row("Thm23 running value at index 3", 12.0 * 2.0 ** (-2.0 / 3.0), v3))
        flags.append(
            "published threshold: oscillation for lambda0 > 1; the computed limsup "
            "quantity grows without bound for every lambda0 > 0, so the stated "
            "threshold appears conservative"
        )
    elif n == 2:
        v22b = evaluate_criterion(criteria.THM22B, eq, horizon)
        report["verdicts"] = [v22b]
        theta_err = _theta_error(eq, range(2, 51))
        rows.append(_row("max |theta(z) - 1/(z-1)| on [2, 50]", 0.0, theta_err))
        term_err = max(abs(t - 1.0) for t in v22b.evidence.term)
        rows.append(_row("max |q(s) * theta^(alpha+1)(s+1) - 1|", 0.0, term_err))
        rows.append(_row("Thm22B holds (series diverges)", True, v22b.holds))
    elif n == 3:
        ceq = to_canonical(eq, max(horizon, 100))  # the rows read r_tilde and q_tilde on [1, 100]
        theta_err = _theta_error(eq, range(1, 51))
        rows.append(_row("max |theta(z) - 1/z| on [1, 50]", 0.0, theta_err))
        rt_err = max(abs(ceq.r(z) - 1.0) for z in range(1, 101))
        rows.append(_row("max |r_tilde(z) - 1| on [1, 100]", 0.0, rt_err))
        qt2 = ceq.q(2)
        qt_spread = max(abs(ceq.q(z) - qt2) for z in range(2, 101))
        rows.append(_row("q_tilde spread on [2, 100]", 0.0, qt_spread))
        rows.append(
            _row(
                "q_tilde constant value",
                4.0,
                qt2,
                flag="computed from the transform formula; disagrees with the published 4",
            )
        )
        flags.append(
            "the transform formula gives q_tilde = 4/5 on these coefficients while the "
            "published value is 4; the exhibited solution (-1)^z solves the comparison "
            "equation only with q_tilde = 4"
        )
        # the published comparison equation: r_tilde = 1, q_tilde = 4
        literal = replace(ceq, r=Sequence.from_expression("1"), q=Sequence.from_expression("4"))
        alternating = Sequence.from_table(1, [(-1.0) ** z for z in range(1, 102)])
        res = canonical_residual(literal, alternating, 3, 100)
        rows.append(_row("residual of (-1)^z with q_tilde = 4 on [3, 100]", 0.0, res))
        sumq = crit_canonical_sumq(ceq, horizon)
        report["verdicts"] = [sumq]
        rows.append(_row("sum of q_tilde diverges (comparison oscillates)", True, sumq.holds))
    return report
