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
ITERATE_BLOCK = 1024  # indices of r and q that iterate reads per column call


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
    x: tuple                  # floats: iterate converts its initial data once
    y_start: int              # index of y[0] (= zeta0)
    y: tuple
    status: TrajectoryStatus

    def x_at(self, zeta: int) -> float:
        i = zeta - self.start_index
        if i < 0 or i >= len(self.x):
            raise DomainError(f"x({zeta}) not stored (range {self.start_index}..{self.end_index})")
        return self.x[i]

    @property
    def end_index(self) -> int:
        return self.start_index + len(self.x) - 1

    def as_sequence(self) -> Sequence:
        return Sequence(domain_start=self.start_index, table=self.x)


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

    x = list(map(float, init.values))  # x[i] = x(start + i)
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

    # q on [lo, hi) and r on [lo + 1, hi + 1) are read as columns one block at a
    # time, so a trajectory that stops early evaluates at most one block past it.
    # A block with finite q and r in (0, inf) runs unchecked, then tests its last
    # x and y: a non-finite y or step makes that step's x non-finite, and a
    # non-finite value stays so (inf - inf, 0 * inf, nan + ...).  Any other block,
    # or one that ends non-finite or raises OverflowError, is dropped and rerun by
    # the checked loop, which alone sets the status; there a flagged entry is
    # computed again by the scalar call, which raises or returns the value the step
    # uses.  The odd powers are signed_pow inlined: a float ** float that overflows
    # raises OverflowError, and a zero base gives +0.0.
    a, inv_a = alpha.value, inv_alpha.value
    isfinite, copysign = math.isfinite, math.copysign
    y_last, x_last = y[-1], x[-1]
    for lo in range(z0, horizon - 1, ITERATE_BLOCK):
        hi = min(lo + ITERATE_BLOCK, horizon - 1)
        q_col, r_col = eq.q.column(lo, hi - lo), eq.r.column(lo + 1, hi - lo)
        clean = np.isfinite(q_col).all() and ((r_col > 0) & (r_col < math.inf)).all()
        q_col, r_col = q_col.tolist(), r_col.tolist()
        if clean:
            nx, ny = len(x), len(y)
            try:
                for z, qz, rz1 in zip(range(lo, hi), q_col, r_col):
                    t = x[z + lag]
                    y_last = y_last - qz * (copysign(abs(t) ** a, t) if t else 0.0)
                    step = y_last / rz1
                    x_last = x_last + (copysign(abs(step) ** inv_a, step) if step else 0.0)
                    y.append(y_last)
                    x.append(x_last)
                if isfinite(x_last) and isfinite(y_last):
                    continue
            except OverflowError:
                pass
            del x[nx:], y[ny:]
            y_last, x_last = y[-1], x[-1]
        for z, qz, rz1 in zip(range(lo, hi), q_col, r_col):
            try:
                if not isfinite(qz):
                    qz = eq.q(z)
                t = x[z + lag]
                y_next = y_last - qz * (copysign(abs(t) ** a, t) if t else 0.0)
                if not isfinite(y_next):
                    return fail(StatusKind.OVERFLOWED, z + 1)
                if not 0 < rz1 < math.inf:
                    rz1 = eq.r(z + 1)
                    if rz1 <= 0:
                        return fail(StatusKind.DOMAIN_ERROR, z + 1)
                step = y_next / rz1
                if not isfinite(step):
                    return fail(StatusKind.OVERFLOWED, z + 2)
                x_next = x_last + (copysign(abs(step) ** inv_a, step) if step else 0.0)
                if not isfinite(x_next):
                    return fail(StatusKind.OVERFLOWED, z + 2)
            except OverflowError:
                return fail(StatusKind.OVERFLOWED, z + 2)
            except DomainError:
                return fail(StatusKind.DOMAIN_ERROR, z + 1)
            y.append(y_next)
            x.append(x_next)
            y_last, x_last = y_next, x_next

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
    col = np.asarray(tail, dtype=float)
    signif = np.flatnonzero(np.abs(col) > tol)
    # a flip is a change of sign bit between consecutive significant entries;
    # their product would underflow to -0.0 for entries below about 1e-162
    negative = np.signbit(col[signif])
    flips = signif[1:][negative[1:] != negative[:-1]]
    if flips.size:
        return TrajectoryClass(
            TrajectoryKind.OSCILLATORY_WITNESS,
            first_change=traj.start_index + burn_in + int(flips[0]),
            sign_changes=int(flips.size),
        )

    window = max(8, len(tail) // 4)
    tail_max = float(np.abs(col[-window:]).max())
    if not signif.size or tail_max < tol:
        since = traj.end_index - window + 1
        return TrajectoryClass(TrajectoryKind.TENDS_TO_ZERO, since=since, bound=tail_max)

    # no flip, so every significant entry has the sign of the first; zeros in
    # between make the verdict unreliable, so require every post-burn-in entry signed
    sign = -1.0 if negative[0] else 1.0
    if (col * sign > 0).all():
        kind = (
            TrajectoryKind.EVENTUALLY_POSITIVE
            if sign > 0
            else TrajectoryKind.EVENTUALLY_NEGATIVE
        )
        return TrajectoryClass(kind, since=traj.start_index + burn_in)
    return TrajectoryClass(TrajectoryKind.INCONCLUSIVE)


def _residual_column(eq: HalfLinearEquation, candidate: Sequence, frm: int, to: int) -> np.ndarray:
    """Left-hand side r(z+1)(Dx(z+1))^a - r(z)(Dx(z))^a + q(z) x^a(d(z)) on [frm, to].

    Evaluated on the columns x, x(d(z)), r and q.  At each index where a value
    is not finite, in order, the scalar calls of its inputs raise the error of
    the first index that fails; an entry whose inputs all succeed overflowed,
    and keeps its inf or NaN.
    """
    z = np.arange(frm, to + 1)
    a = eq.alpha
    x = candidate.eval_array(np.arange(frm, to + 3))
    xd = candidate.eval_array(eq.delayed_index(z))
    r = eq.r.column(frm, to + 2 - frm)
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = (
            r[1:] * signed_pow_array(x[2:] - x[1:-1], a)
            - r[:-1] * signed_pow_array(x[1:-1] - x[:-2], a)
            + eq.q.column(frm, to + 1 - frm) * signed_pow_array(xd, a)
        )
    for s in (frm + np.flatnonzero(~np.isfinite(lhs))).tolist():
        candidate(s), candidate(s + 1), candidate(s + 2), candidate(eq.delayed_index(s))
        eq.r(s + 1), eq.r(s), eq.q(s)
    return lhs


def residual_pointwise(
    eq: HalfLinearEquation, candidate: Sequence, frm: int, to: int
) -> list[tuple[int, float]]:
    """Pointwise (index, left-hand side) pairs over [frm, to]."""
    return list(zip(range(frm, to + 1), _residual_column(eq, candidate, frm, to).tolist()))


def residual(eq: HalfLinearEquation, candidate: Sequence, frm: int, to: int) -> float:
    """Max absolute pointwise residual over [frm, to]; exact solutions give ~0."""
    return float(np.abs(_residual_column(eq, candidate, frm, to)).max())


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
