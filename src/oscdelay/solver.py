"""Forward iteration, trajectory classification and residual evaluation.

The recurrence is advanced through the quasi-difference
y(z) = r(z) * (x(z+1) - x(z))^alpha:

    y(z+1) = y(z) - q(z) * signed_pow(x(d(z)), alpha)
    x(z+2) = x(z+1) + signed_pow(y(z+1) / r(z+1), 1/alpha)

with d(z) the delayed index of the equation.  Overflow truncates the
trajectory and marks it rather than raising: partial trajectories of fast
growing coefficients are still informative.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equation import DelayForm, HalfLinearEquation, theta
from .errors import DomainError
from .power import RationalExponent, signed_pow, signed_pow_array
from .sequences import Sequence


ZERO_TOL = 1e-8  # trajectory entries at most this in magnitude count as zero


@dataclass(frozen=True)
class InitialData:
    """Starting values x(zeta0 - sigma), ..., x(zeta0 + 1), i.e. sigma + 2 reals.

    The explicit two-step recurrence needs the full stencil, hence the
    sigma + 2 count; every value must be finite and one nonzero.
    """

    start_index: int
    values: tuple

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values) or not any(self.values):
            raise ValueError(f"initial data must be finite and not all zero, got {list(self.values)}")

    @classmethod
    def for_equation(cls, eq: HalfLinearEquation, values) -> "InitialData":
        values = tuple(float(v) for v in values)
        if len(values) != eq.sigma + 2:
            raise ValueError(
                f"initial data must have sigma + 2 = {eq.sigma + 2} values, got {len(values)}"
            )
        return cls(start_index=eq.zeta0 - eq.sigma, values=values)


class StatusKind(enum.Enum):
    COMPLETED = "completed"
    OVERFLOWED = "overflowed"
    DOMAIN_ERROR = "domain_error"


@dataclass(frozen=True)
class TrajectoryStatus:
    kind: StatusKind
    at: Optional[int] = None


@dataclass(frozen=True)
class Trajectory:
    start_index: int          # index of x[0]
    x: tuple
    y_start: int              # index of y[0] (= zeta0)
    y: tuple
    status: TrajectoryStatus

    def x_at(self, zeta: int) -> float:
        i = zeta - self.start_index
        if i < 0 or i >= len(self.x):
            raise DomainError(f"x({zeta}) not stored (range {self.start_index}..{self.end_index})")
        return self.x[i]

    def y_at(self, zeta: int) -> float:
        i = zeta - self.y_start
        if i < 0 or i >= len(self.y):
            raise DomainError(f"y({zeta}) not stored")
        return self.y[i]

    @property
    def end_index(self) -> int:
        return self.start_index + len(self.x) - 1

    def as_sequence(self) -> Sequence:
        return Sequence.from_table(self.start_index, self.x)


class TrajectoryKind(enum.Enum):
    OSCILLATORY_WITNESS = "oscillatory_witness"
    EVENTUALLY_POSITIVE = "eventually_positive"
    EVENTUALLY_NEGATIVE = "eventually_negative"
    TENDS_TO_ZERO = "tends_to_zero"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TrajectoryClass:
    kind: TrajectoryKind
    first_change: Optional[int] = None   # first sign-change index (oscillatory)
    sign_changes: int = 0
    since: Optional[int] = None          # onset for one-signed / tends-to-zero
    bound: Optional[float] = None        # tail bound for tends-to-zero


def iterate(eq: HalfLinearEquation, init: InitialData, horizon: int) -> Trajectory:
    """Advance the recurrence from initial data up to index `horizon`."""
    expected_start = eq.zeta0 - eq.sigma
    if init.start_index != expected_start or len(init.values) != eq.sigma + 2:
        raise ValueError(
            f"initial data must cover x({expected_start})..x({eq.zeta0 + 1}) "
            f"({eq.sigma + 2} values)"
        )
    if horizon <= eq.zeta0 + 1:
        raise ValueError(f"horizon must exceed zeta0 + 1 = {eq.zeta0 + 1}")

    x = list(init.values)  # x[i] = x(start + i)
    start = init.start_index
    z0 = eq.zeta0
    alpha = eq.alpha
    inv_alpha = alpha.reciprocal()
    lag = eq.delayed_index(0) - start  # x(d(z)) is x[z + lag]
    status = TrajectoryStatus(StatusKind.COMPLETED)
    y: list[float] = []

    def fail(kind: StatusKind, at: int) -> Trajectory:
        return Trajectory(start, tuple(x), z0, tuple(y), TrajectoryStatus(kind, at))

    try:
        r0 = eq.r(z0)
    except DomainError:
        return fail(StatusKind.DOMAIN_ERROR, z0)
    if r0 <= 0:
        return fail(StatusKind.DOMAIN_ERROR, z0)
    dx = x[z0 + 1 - start] - x[z0 - start]
    if not math.isfinite(dx):
        return fail(StatusKind.OVERFLOWED, z0)
    try:
        y.append(r0 * signed_pow(dx, alpha))
    except OverflowError:
        return fail(StatusKind.OVERFLOWED, z0)

    for z in range(z0, horizon - 1):
        try:
            qz = eq.q(z)
            xd = x[z + lag]
            y_next = y[-1] - qz * signed_pow(xd, alpha)
            if not math.isfinite(y_next):
                return fail(StatusKind.OVERFLOWED, z + 1)
            rz1 = eq.r(z + 1)
            if rz1 <= 0:
                return fail(StatusKind.DOMAIN_ERROR, z + 1)
            step = y_next / rz1
            if not math.isfinite(step):
                return fail(StatusKind.OVERFLOWED, z + 2)
            x_next = x[-1] + signed_pow(step, inv_alpha)
            if not math.isfinite(x_next):
                return fail(StatusKind.OVERFLOWED, z + 2)
        except OverflowError:
            return fail(StatusKind.OVERFLOWED, z + 2)
        except DomainError:
            return fail(StatusKind.DOMAIN_ERROR, z + 1)
        y.append(y_next)
        x.append(x_next)

    return Trajectory(start, tuple(x), z0, tuple(y), status)


def classify_trajectory(traj: Trajectory, tol: float = ZERO_TOL) -> TrajectoryClass:
    """Classify the behavior of a computed trajectory past its first fifth.

    Entries with |x| <= tol count as zero; oscillation registers only on a
    genuine sign flip of entries exceeding tol (robust to chatter around 0).
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    n = len(traj.x)
    burn_in = n // 5  # criteria are "eventual" statements: skip transients
    if n < burn_in + 8:
        raise ValueError(f"trajectory too short: {n} points with burn_in {burn_in}")

    tail = traj.x[burn_in:]
    indices = range(traj.start_index + burn_in, traj.end_index + 1)
    signif = [(i, v) for i, v in zip(indices, tail) if abs(v) > tol]

    changes = 0
    first_change = None
    for (_, a), (j, b) in zip(signif, signif[1:]):
        if a * b < 0:
            changes += 1
            if first_change is None:
                first_change = j
    if changes > 0:
        return TrajectoryClass(
            TrajectoryKind.OSCILLATORY_WITNESS, first_change=first_change, sign_changes=changes
        )

    tail_window = tail[-max(8, len(tail) // 4):]
    tail_max = max(abs(v) for v in tail_window)
    if not signif or tail_max < tol:
        since = traj.end_index - len(tail_window) + 1
        return TrajectoryClass(TrajectoryKind.TENDS_TO_ZERO, since=since, bound=tail_max)

    sign = 1.0 if signif[0][1] > 0 else -1.0
    if all(v * sign > 0 for _, v in signif):
        # strict sign from the first significant entry onward; zeros in between
        # make the verdict unreliable, so require every post-burn-in entry signed
        if all(v * sign > 0 for v in tail):
            kind = (
                TrajectoryKind.EVENTUALLY_POSITIVE
                if sign > 0
                else TrajectoryKind.EVENTUALLY_NEGATIVE
            )
            return TrajectoryClass(kind, since=traj.start_index + burn_in)
    return TrajectoryClass(TrajectoryKind.INCONCLUSIVE)


def residual_pointwise(
    eq: HalfLinearEquation, candidate: Sequence, frm: int, to: int
) -> list[tuple[int, float]]:
    """Pointwise left-hand side r(z+1)(Dx(z+1))^a - r(z)(Dx(z))^a + q(z) x^a(d(z)).

    Evaluated on the columns x, x(d(z)), r and q.  At each index where a value
    is not finite, in order, the scalar calls compute it again, so the error
    raised is that of the first index that fails.
    """
    z = np.arange(frm, to + 1)
    a = eq.alpha
    x = candidate.eval_array(np.arange(frm, to + 3))
    xd = candidate.eval_array(eq.delayed_index(z))
    r = eq.r.eval_array(np.arange(frm, to + 2))
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = (
            r[1:] * signed_pow_array(x[2:] - x[1:-1], a)
            - r[:-1] * signed_pow_array(x[1:-1] - x[:-2], a)
            + eq.q.eval_array(z) * signed_pow_array(xd, a)
        )
    for i in np.flatnonzero(~np.isfinite(lhs)).tolist():
        s = frm + i
        x0, x1, x2 = candidate(s), candidate(s + 1), candidate(s + 2)
        x_delayed = candidate(eq.delayed_index(s))
        lhs[i] = (
            eq.r(s + 1) * signed_pow(x2 - x1, a)
            - eq.r(s) * signed_pow(x1 - x0, a)
            + eq.q(s) * signed_pow(x_delayed, a)
        )
    return list(zip(z.tolist(), lhs.tolist()))


def residual(eq: HalfLinearEquation, candidate: Sequence, frm: int, to: int) -> float:
    """Max absolute pointwise residual over [frm, to]; exact solutions give ~0."""
    return max(abs(v) for _, v in residual_pointwise(eq, candidate, frm, to))


# relative slack lemma22_check allows lhs over rhs before it reports a violation
LEMMA22_TOL = 1e-9


def lemma22_check(eq: HalfLinearEquation, traj: Trajectory) -> list[tuple[int, float, float]]:
    """Check (r^(1/a)(z) Dx(z) / x(z-sigma+1))^(a-1) <= theta(z)^(1-a) on the positive window.

    Requires alpha >= 1 and the z - sigma + 1 delay form.  Returns
    (index, lhs, rhs) for each violation; genuine positive solutions give none.
    """
    if eq.delay_form is not DelayForm.MINUS_SIGMA_PLUS_ONE:
        raise ValueError("the inequality applies to the z - sigma + 1 delay form")
    a = eq.alpha
    if a.value < 1:
        raise ValueError("the inequality requires alpha >= 1")
    # exponent a - 1 = (m - n)/n has even numerator, so the power is |t|^(a-1)
    exp_num, exp_den = a.num - a.den, a.den
    inv_a = a.reciprocal()
    violations = []
    checked = 0
    for z in range(eq.zeta0, traj.end_index):
        xz1 = traj.x_at(eq.delayed_index(z))
        xz, xn = traj.x_at(z), traj.x_at(z + 1)
        if xz1 <= 0 or xz <= 0:
            continue
        checked += 1
        if exp_num == 0:
            lhs = 1.0
            rhs = 1.0
        else:
            base = signed_pow(eq.r(z), inv_a) * (xn - xz) / xz1
            lhs = abs(base) ** (exp_num / exp_den)
            th = theta(eq, z).value
            rhs = th ** (1.0 - a.value)
        if lhs > rhs * (1.0 + LEMMA22_TOL):
            violations.append((z, lhs, rhs))
    if checked == 0:
        raise ValueError("no positive window to check")
    return violations
