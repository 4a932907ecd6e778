"""Comparison transform to a canonical-form linear delay equation.

A non-canonical equation in the z - sigma + 1 delay form with alpha >= 1 is
mapped to the canonical comparison equation

    D(rt(z) * D x(z-1)) + qt(z) * x(z - sigma) = 0

with rt(z) = theta(z) theta(z+1) r^(1/alpha)(z) and
qt(z) = (1/alpha) theta(z+1) theta^(alpha-1)(z) theta(z-sigma+1) q(z).
Oscillation of the comparison equation implies oscillation of the original;
the test applied here is divergence of sum(qt).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CANONICAL_SUM_Q, CriterionVerdict, ProbePolicy, _series_verdict
from .equation import DelayForm, HalfLinearEquation, TailConfig, theta, theta_extended
from .errors import DomainError, StageError
from .sequences import Sequence


@dataclass(frozen=True)
class CanonicalEquation:
    r_tilde: Sequence
    q_tilde: Sequence
    sigma: int
    zeta0: int


def to_canonical(eq: HalfLinearEquation, cfg: TailConfig = TailConfig()) -> CanonicalEquation:
    """Build the canonical comparison equation; theta must certify finite."""
    if eq.delay_form is not DelayForm.MINUS_SIGMA_PLUS_ONE:
        raise StageError("the transform applies to the z - sigma + 1 delay form")
    if eq.alpha.value < 1:
        raise StageError(f"the transform requires alpha >= 1, got {eq.alpha}")
    head = theta(eq, eq.zeta0, cfg)
    # a power-law tail estimate is accepted alongside certified sums: it is
    # uncertified but accurate enough for the derived coefficients
    if not head.certified and head.method != "poly_tail":
        raise StageError("theta could not be certified finite; transform unavailable")

    a = eq.alpha
    inv_alpha = a.den / a.num

    def r_tilde(z):
        z = int(z)
        return theta(eq, z, cfg).value * theta(eq, z + 1, cfg).value * eq.r(z) ** inv_alpha

    def q_tilde(z):
        z = int(z)
        qv = eq.q(z)
        if qv == 0.0:
            # avoids demanding theta at shifted indices the coefficients never weight
            return 0.0
        th_next = theta(eq, z + 1, cfg).value
        th_here = theta(eq, z, cfg).value
        th_shift = theta_extended(eq, z - eq.sigma + 1, cfg).value
        return (a.den / a.num) * th_next * th_here ** (a.value - 1.0) * th_shift * qv

    return CanonicalEquation(
        r_tilde=Sequence.closed_form("r_tilde", r_tilde, domain_start=eq.zeta0),
        q_tilde=Sequence.closed_form("q_tilde", q_tilde, domain_start=eq.zeta0),
        sigma=eq.sigma,
        zeta0=eq.zeta0,
    )


def canonical_residual_pointwise(
    ceq: CanonicalEquation, candidate: Sequence, frm: int, to: int
) -> list[tuple[int, float]]:
    """Pointwise rt(z+1)(x(z+1)-x(z)) - rt(z)(x(z)-x(z-1)) + qt(z) x(z-sigma)."""
    out = []
    for z in range(frm, to + 1):
        xm, x0, xp = candidate(z - 1), candidate(z), candidate(z + 1)
        lhs = (
            ceq.r_tilde(z + 1) * (xp - x0)
            - ceq.r_tilde(z) * (x0 - xm)
            + ceq.q_tilde(z) * candidate(z - ceq.sigma)
        )
        out.append((z, lhs))
    return out


def canonical_residual(ceq: CanonicalEquation, candidate: Sequence, frm: int, to: int) -> float:
    """Max absolute pointwise residual of the comparison equation."""
    return max(abs(v) for _, v in canonical_residual_pointwise(ceq, candidate, frm, to))


def crit_canonical_sumq(
    ceq: CanonicalEquation, horizon: int, policy: ProbePolicy = ProbePolicy()
) -> CriterionVerdict:
    """Divergence test on sum(qt): when it diverges, the comparison equation
    oscillates and so does the original delay equation."""

    def q_tilde(z):
        try:
            return ceq.q_tilde(z)
        except DomainError as exc:
            raise StageError(f"q_tilde not evaluable at {z}: {exc}") from exc

    term = np.array([q_tilde(z) for z in range(ceq.zeta0, ceq.zeta0 + horizon)])
    return _series_verdict(
        CANONICAL_SUM_Q,
        "the canonical comparison equation oscillates, hence so does the original",
        ceq.zeta0, term, policy,
    )
