"""Comparison transform to a canonical-form linear delay equation.

A non-canonical equation with alpha >= 1 in the z - sigma + 1 delay form, or
with alpha = 1 in either form, is mapped to the canonical comparison equation:
the model equation with alpha = 1, the same delayed index d(z), and

    rt(z) = theta(z) theta(z+1) r^(1/alpha)(z),
    qt(z) = (1/alpha) theta(z+1) theta^(alpha-1)(z) theta(d(z)) q(z).

In the z - sigma + 1 form it is D(rt(z) D x(z-1)) + qt(z) x(z - sigma) = 0
written in y(z) = x(z-1).  At alpha = 1 it is exact: x solves the equation
exactly when x / theta solves the comparison equation.  Oscillation of the
comparison equation implies oscillation of the original; the test applied
here is divergence of sum(qt).
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .criteria import CANONICAL_SUM_Q, CriterionVerdict, _series_verdict, _valid_q
from .equation import DelayForm, HalfLinearEquation, tail_shortfall, theta_extended, theta_window
from .errors import DomainError, StageError
from .power import RationalExponent
from .sequences import Sequence
from .solver import residual, residual_pointwise


def _coefficient(name: str, z: int, formula) -> float:
    """formula() at z, inf past the float range; a StageError where not evaluable or not finite."""
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    except DomainError as exc:
        raise StageError(f"{name} not evaluable at {z}: {exc}") from exc
    if not math.isfinite(value):
        raise StageError(f"{name} not evaluable at {z}: {name} is not finite at index {z}")
    return value


def to_canonical(eq: HalfLinearEquation, horizon: int) -> HalfLinearEquation:
    """The comparison equation, with rt and qt tabulated on [zeta0, zeta0 + horizon],
    the window _valid_q checks; theta must certify finite.  The first index
    where rt or qt is not evaluable or not finite is a StageError."""
    if eq.alpha.value < 1:
        raise StageError(f"the transform requires alpha >= 1, got {eq.alpha}")
    if eq.delay_form is DelayForm.MINUS_SIGMA and eq.alpha.value != 1:
        raise StageError(f"the transform applies to the delay form only at alpha = 1, got {eq.alpha}")
    if tail_shortfall(eq) is not None:
        raise StageError("theta could not be certified finite; transform unavailable")

    zs = range(eq.zeta0, eq.zeta0 + horizon + 1)
    th = theta_window(eq, eq.zeta0, len(zs) + 1).tolist()
    inv_alpha, power = eq.alpha.den / eq.alpha.num, eq.alpha.value - 1.0

    def q_tilde(i: int, z: int) -> float:
        if (qv := eq.q(z)) == 0.0:
            return 0.0  # needs no theta at a delayed index the coefficients never weight
        th_delayed = theta_extended(eq, eq.delayed_index(z)).value
        return inv_alpha * th[i + 1] * qv * th[i] ** power * th_delayed

    # the coefficient is multiplied in before the second theta factor: a product
    # of two small thetas can underflow where rt or qt is a normal float
    rt, qt = [], []
    for i, z in enumerate(zs):
        rt.append(_coefficient("r_tilde", z, lambda: th[i] * eq.r(z) ** inv_alpha * th[i + 1]))
        qt.append(_coefficient("q_tilde", z, lambda: q_tilde(i, z)))
    return replace(eq, r=Sequence.from_table(eq.zeta0, rt), q=Sequence.from_table(eq.zeta0, qt),
                   alpha=RationalExponent(1, 1), theta_closed_form=None)


def _shifted(ceq: HalfLinearEquation, candidate: Sequence, frm: int, to: int) -> Sequence:
    """One table of x on [frm - sigma, to + 1], read as y(z) = x(z-1); the delay form is refused."""
    if ceq.delay_form is DelayForm.MINUS_SIGMA:
        raise StageError("the comparison residual in y(z) = x(z-1) applies to the "
                         "z - sigma + 1 delay form, not the delay form")
    zs = np.arange(frm - ceq.sigma, to + 2)
    x = candidate.eval_array(zs)
    if not np.isfinite(x).all():
        candidate(int(zs[np.argmax(~np.isfinite(x))]))  # raises as a scalar call does
    return Sequence.from_table(frm - ceq.sigma + 1, x)


def canonical_residual_pointwise(
    ceq: HalfLinearEquation, candidate: Sequence, frm: int, to: int
) -> list[tuple[int, float]]:
    """Pointwise rt(z+1)(x(z+1)-x(z)) - rt(z)(x(z)-x(z-1)) + qt(z) x(z-sigma): the model
    equation's left-hand side at y(z) = x(z-1), the z - sigma + 1 form's comparison equation."""
    return residual_pointwise(ceq, _shifted(ceq, candidate, frm, to), frm, to)


def canonical_residual(ceq: HalfLinearEquation, candidate: Sequence, frm: int, to: int) -> float:
    """Max absolute pointwise residual of the comparison equation, NaN where any value is."""
    return residual(ceq, _shifted(ceq, candidate, frm, to), frm, to)


def crit_canonical_sumq(ceq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    """Lem21's series on the comparison equation, under the criteria's hypothesis
    check: when sum(qt) diverges, the comparison equation oscillates and so does
    the original delay equation."""
    return _series_verdict(
        CANONICAL_SUM_Q,
        "the canonical comparison equation oscillates, hence so does the original",
        ceq.zeta0, _valid_q(ceq, horizon),
    )
