"""Comparison transform to a canonical-form linear delay equation.

A non-canonical equation in the z - sigma + 1 delay form with alpha >= 1 is
mapped to the canonical comparison equation

    D(rt(z) * D x(z-1)) + qt(z) * x(z - sigma) = 0

with rt(z) = theta(z) theta(z+1) r^(1/alpha)(z) and
qt(z) = (1/alpha) theta(z+1) theta^(alpha-1)(z) theta(z-sigma+1) q(z).
Written in y(z) = x(z-1) it is the model equation with r = rt, q = qt,
alpha = 1 and the z - sigma + 1 delay form, and it is built as one.
Oscillation of the comparison equation implies oscillation of the original;
the test applied here is divergence of sum(qt).
"""
from __future__ import annotations

import math

import numpy as np

from .criteria import CANONICAL_SUM_Q, CriterionVerdict, _series_verdict, _theta_column
from .equation import DelayForm, HalfLinearEquation, tail_shortfall, theta_extended
from .errors import DomainError, StageError
from .power import RationalExponent
from .sequences import Sequence
from .solver import residual_pointwise


def to_canonical(eq: HalfLinearEquation, horizon: int) -> HalfLinearEquation:
    """Build the canonical comparison equation in y(z) = x(z-1), with rt and qt
    tabulated on [zeta0, zeta0 + horizon]; theta must certify finite.  The first
    index where rt or qt is not evaluable or not finite is a StageError."""
    if eq.delay_form is not DelayForm.MINUS_SIGMA_PLUS_ONE:
        raise StageError("the transform applies to the z - sigma + 1 delay form")
    if eq.alpha.value < 1:
        raise StageError(f"the transform requires alpha >= 1, got {eq.alpha}")
    if tail_shortfall(eq) is not None:
        raise StageError("theta could not be certified finite; transform unavailable")

    inv_alpha, power = eq.alpha.den / eq.alpha.num, eq.alpha.value - 1.0
    th = _theta_column(eq, eq.zeta0, horizon + 2).tolist()
    columns: dict = {"r_tilde": [], "q_tilde": []}
    # the coefficient is multiplied in before the second theta factor: a product
    # of two small thetas can underflow where rt or qt is a normal float
    for i, z in enumerate(range(eq.zeta0, eq.zeta0 + horizon + 1)):
        for name, column in columns.items():
            try:
                if name == "r_tilde":
                    value = th[i] * eq.r(z) ** inv_alpha * th[i + 1]
                elif (qv := eq.q(z)) == 0.0:
                    value = 0.0  # needs no theta at a shifted index the coefficients never weight
                else:
                    th_shift = theta_extended(eq, z - eq.sigma + 1).value
                    value = inv_alpha * th[i + 1] * qv * th[i] ** power * th_shift
            except OverflowError:  # a Python float power beyond float range
                value = math.inf
            except DomainError as exc:
                raise StageError(f"{name} not evaluable at {z}: {exc}") from exc
            if not math.isfinite(value):
                raise StageError(f"{name} not evaluable at {z}: {name} is not finite at index {z}")
            column.append(value)

    return HalfLinearEquation(
        r=Sequence.from_table(eq.zeta0, columns["r_tilde"]),
        q=Sequence.from_table(eq.zeta0, columns["q_tilde"]),
        alpha=RationalExponent(1, 1),
        sigma=eq.sigma,
        delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
        zeta0=eq.zeta0,
    )


def canonical_residual_pointwise(
    ceq: HalfLinearEquation, candidate: Sequence, frm: int, to: int
) -> list[tuple[int, float]]:
    """Pointwise rt(z+1)(x(z+1)-x(z)) - rt(z)(x(z)-x(z-1)) + qt(z) x(z-sigma): the model
    equation's left-hand side at y(z) = x(z-1), from one table of x on [frm - sigma, to + 1]."""
    zs = np.arange(frm - ceq.sigma, to + 2)
    x = candidate.eval_array(zs)
    if not np.isfinite(x).all():
        candidate(int(zs[np.argmax(~np.isfinite(x))]))  # raises as a scalar call does
    return residual_pointwise(ceq, Sequence.from_table(frm - ceq.sigma + 1, x), frm, to)


def canonical_residual(ceq: HalfLinearEquation, candidate: Sequence, frm: int, to: int) -> float:
    """Max absolute pointwise residual of the comparison equation."""
    return max(abs(v) for _, v in canonical_residual_pointwise(ceq, candidate, frm, to))


def crit_canonical_sumq(ceq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    """Divergence test on sum(qt): when it diverges, the comparison equation
    oscillates and so does the original delay equation.  A negative qt term is
    a StageError, as a negative q is for the criteria."""
    z = np.arange(ceq.zeta0, ceq.zeta0 + horizon)
    term = ceq.q.eval_array(z)
    if not np.isfinite(term).all():
        bad = int(z[np.argmax(~np.isfinite(term))])
        try:
            ceq.q(bad)
        except DomainError as exc:
            raise StageError(f"q_tilde not evaluable at {bad}: {exc}") from exc
    negative = term < 0
    if negative.any():
        i = int(np.argmax(negative))
        raise StageError(
            f"q_tilde({ceq.zeta0 + i}) = {term[i]} < 0: the sum test needs non-negative terms")
    return _series_verdict(
        CANONICAL_SUM_Q,
        "the canonical comparison equation oscillates, hence so does the original",
        ceq.zeta0, term,
    )
