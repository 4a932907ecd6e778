"""Equation model, tail sums and canonical-form classification.

The model is the second-order half-linear delay recurrence

    D(r(z) * (D x(z))^alpha) + q(z) * x^alpha(d(z)) = 0,    z >= zeta0,

with forward difference D, delayed index d(z) = z - sigma or z - sigma + 1,
and alpha an odd/odd rational.  The key coefficient functionals are the
partial sums R(z) = sum_{s=zeta0}^{z-1} r(s)^(-1/alpha) and the tail sums
theta(z) = sum_{s=z}^{inf} r(s)^(-1/alpha); the equation is canonical when R
diverges and non-canonical when theta is finite.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, NonConvergentError
from .power import RationalExponent
from .sequences import Sequence


class DelayForm(enum.Enum):
    MINUS_SIGMA = "delay"            # forcing term at z - sigma
    MINUS_SIGMA_PLUS_ONE = "delay_plus_one"  # forcing term at z - sigma + 1


class FormClass(enum.Enum):
    CANONICAL = "canonical"
    NON_CANONICAL = "non_canonical"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailConfig:
    """Truncation policy for numeric tail sums.

    Terms are summed until term < tol_abs; the result is certified only when
    a geometric-ratio certificate holds over the trailing ratio_window terms
    (ratio <= ratio_max < 1, and no ratio more than 1e-12 relative above the
    one before it), with tail_bound = term * rho / (1 - rho).  Rising ratios,
    the signature of polynomial decay, refuse the certificate.  The check sees
    only that window: it does not prove that the ratios keep falling past it.
    When the certificate fails but the terms decay like a power s^(-p) with
    p > poly_min_exponent, an uncertified power-law tail estimate is added.
    Otherwise summation stops at max_terms, uncertified.  The terms are judged
    divergent when the minimum over a span of 65 536 indices (anchored at zeta0)
    is not trend_tol below the one before it.  block, the number of terms
    evaluated at once, sets memory and work only, never a verdict.
    """

    tol_abs: float = 1e-12
    max_terms: int = 1_000_000
    ratio_window: int = 8
    ratio_max: float = 0.99
    trend_tol: float = 1e-3
    block: int = 65536
    poly_min_exponent: float = 1.05
    fit_window: int = 64


@dataclass(frozen=True)
class TailSumResult:
    value: float
    truncation_index: int
    tail_bound: Optional[float]  # None = unknown
    certified: bool
    method: str

    def __post_init__(self):
        if self.certified and (self.tail_bound is None or self.tail_bound < 0):
            raise ValueError("certified results need a finite non-negative tail_bound")


@dataclass(frozen=True)
class HalfLinearEquation:
    r: Sequence
    q: Sequence
    alpha: RationalExponent
    sigma: int
    delay_form: DelayForm
    zeta0: int
    theta_closed_form: Optional[Sequence] = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be a non-negative integer")
        if self.delay_form is DelayForm.MINUS_SIGMA_PLUS_ONE and self.sigma < 1:
            raise ValueError("the z - sigma + 1 delay form requires sigma >= 1")

    def delayed_index(self, zeta: int) -> int:
        if self.delay_form is DelayForm.MINUS_SIGMA:
            return zeta - self.sigma
        return zeta - self.sigma + 1

    def inv_r_alpha(self, zeta: int) -> float:
        """r(zeta)^(-1/alpha); raises DomainError unless r(zeta) > 0."""
        rv = self.r(zeta)
        if rv <= 0:
            raise DomainError(f"r({zeta}) = {rv} is not positive")
        return rv ** (-self.alpha.den / self.alpha.num)

    def inv_r_alpha_array(self, s: np.ndarray) -> np.ndarray:
        rv = self.r.eval_array(s)
        if rv.size and not np.all(rv > 0):
            bad = int(np.asarray(s)[np.argmax(~(rv > 0))])
            raise DomainError(f"r({bad}) is not positive")
        with np.errstate(over="ignore"):
            return rv ** (-self.alpha.den / self.alpha.num)


def R_partial(eq: HalfLinearEquation, zeta: int) -> float:
    """Partial sum of r^(-1/alpha) from zeta0 to zeta - 1 (empty sum = 0)."""
    if zeta < eq.zeta0:
        raise DomainError(f"R is defined for zeta >= zeta0 = {eq.zeta0}, got {zeta}")
    terms = eq.inv_r_alpha_array(np.arange(eq.zeta0, zeta, dtype=float))
    if not np.all(np.isfinite(terms)):
        bad = eq.zeta0 + int(np.argmax(~np.isfinite(terms)))
        raise DomainError(f"r^(-1/alpha) not finite at index {bad}")
    return float(np.sum(terms))


def _fit_power_exponent(s: np.ndarray, t: np.ndarray) -> Optional[float]:
    """Least-squares slope of ln t against ln s; returns p with t ~ s^(-p)."""
    mask = (t > 0) & (s > 0)
    if mask.sum() < 4:
        return None
    ls = np.log(s[mask])
    lt = np.log(t[mask])
    ls -= ls.mean()
    denom = float(np.dot(ls, ls))
    if denom == 0.0:
        return None
    return float(-np.dot(ls, lt - lt.mean()) / denom)


def _poly_tail_estimate(s_last: float, t_last: float, p: float) -> float:
    """Euler-Maclaurin tail of c*s^(-p) past s_last, anchored at the last term.

    The corrections run to the B6 term.  The first term left out is 1.5/m^8 of
    the tail for p = 4, so blocks past the scanned range, each anchored at its
    own end, join within 1e-12 relative from m = 64 on.
    """
    m = s_last + 1.0
    scale = t_last * (m / s_last) ** (-p)
    p3 = p * (p + 1.0) * (p + 2.0)
    return scale * (m / (p - 1.0) + 0.5 + p / (12.0 * m) - p3 / (720.0 * m ** 3)
                    + p3 * (p + 3.0) * (p + 4.0) / (30240.0 * m ** 5))


def _suffix_sums(t: np.ndarray) -> np.ndarray:
    """out[i] = sum(t[i:]), compensated after Neumaier (1974): TwoSum recovers each
    rounding error of the reversed np.cumsum, and their running sum is added back."""
    rev = t[::-1]
    acc = np.cumsum(rev)
    prev = np.concatenate(([0.0], acc[:-1]))
    back = acc - prev
    return (acc + np.cumsum((prev - (acc - back)) + (rev - back)))[::-1]


# span of the trend screen: the minima of consecutive spans must fall by trend_tol.
# Spans do not follow cfg.block, which would scale the screen's tolerance with it.
_TREND_SPAN = 65536


class _TailTable:
    """The truncation loop run once from zeta0 in blocks anchored there (past the
    scanned range, at its end), so a block evaluated again holds the same terms.
    theta(z) = suffix sum of z's block + sums of later scanned blocks + remainder.
    """

    def __init__(self, eq: HalfLinearEquation, cfg: TailConfig):
        self.eq, self.cfg = eq, cfg
        if eq.theta_closed_form is not None:
            # a closed form is only cross-checked, by a looser and shorter pass
            self.cfg = replace(cfg, tol_abs=max(cfg.tol_abs, 1e-9), max_terms=min(cfg.max_terms, 100_000))
        sums: list = []
        *self.meta, self.remainder = self._scan(sums)
        self.after = [math.fsum(sums[k + 1:]) for k in range(len(sums))]
        self.rest = self.remainder(self.end, self._t_end)
        # block number -> (suffix sums, later blocks' sum, remainder); block 0 from the pass
        self.blocks = {0: (_suffix_sums(self._first), self.after[0], self.rest)}
        del self._first

    def _terms(self, s: int, m: int) -> np.ndarray:
        t = self.eq.inv_r_alpha_array(np.arange(s, s + m, dtype=float))
        if not np.all(np.isfinite(t)):
            raise NonConvergentError(f"tail terms overflow near index {s}: series looks divergent")
        return t

    def _scan(self, sums: list) -> tuple:
        """Sum blocks to a tail certificate: (T, tail bound, certified, method, remainder)."""
        cfg, z0 = self.cfg, self.eq.zeta0
        hist = np.empty(0)  # the last terms summed, up to the current stop
        prev_min: Optional[float] = None  # the trend screen's last full span
        span_min, span_start, last = math.inf, z0, z0 + cfg.max_terms
        keep = max(cfg.fit_window, cfg.ratio_window + 1)
        for s in range(z0, last, cfg.block):
            m = min(cfg.block, last - s)
            t = self._terms(s, m)
            if s == z0:
                self._first = t
            sums.append(float(np.sum(t)))
            self.end, self._t_end = s + m - 1, float(t[-1])
            below = t <= cfg.tol_abs
            stopped = bool(below.any())
            n = int(np.argmax(below)) + 1 if stopped else m
            hist = np.concatenate([hist, t[:n]])[-keep:]
            if stopped:
                win = hist[hist > 0][-(cfg.ratio_window + 1):]
                underflow = hist[-1] == 0.0 and win.size >= 2
                if underflow or win.size == cfg.ratio_window + 1:
                    ratios = win[1:] / win[:-1]
                    rho = float(ratios.max())
                    # rising ratios are the signature of polynomial decay: no geometric bound
                    rising = bool((ratios[1:] > ratios[:-1] * (1.0 + 1e-12)).any())
                    if rho <= cfg.ratio_max and not rising:
                        # underflowed to zero after a decaying run: tail is below tol
                        bound = cfg.tol_abs if underflow else float(win[-1]) * rho / (1.0 - rho)
                        return (s + n - 1, bound, True, "geometric",
                                lambda s_last, t_last: t_last * rho / (1.0 - rho))
                p = _fit_power_exponent(np.arange(s + n - hist.size, s + n, dtype=float), hist)
                if p is not None and p > cfg.poly_min_exponent and hist[-1] > 0:
                    return (s + n - 1, None, False, "poly_tail",
                            lambda s_last, t_last: _poly_tail_estimate(s_last, t_last, p))
                # tiny terms that decay too slowly to bound: keep summing
                hist = np.concatenate([hist, t[n:]])[-keep:]
            i = 0
            while i < m:  # the spans this block reaches into
                close = min(span_start + _TREND_SPAN, last)
                j = min(m, close - s)
                span_min, i = min(span_min, float(t[i:j].min())), j
                if s + j < close:
                    continue
                if prev_min is not None and 0 < span_min >= (1.0 - cfg.trend_tol) * prev_min:
                    raise NonConvergentError(
                        f"tail terms not decreasing near index {span_start}: series looks divergent")
                prev_min, span_min, span_start = span_min, math.inf, close
        return self.end, None, False, "max_terms", lambda s_last, t_last: 0.0

    def lookup(self, zeta: int) -> tuple:
        """(theta(zeta) for zeta >= zeta0, the partial sum in it: a certified lower bound)."""
        z0, size, scanned = self.eq.zeta0, self.cfg.block, len(self.after)
        if zeta <= self.end:
            k, i = divmod(zeta - z0, size)
            start, m = z0 + k * size, min(size, self.end + 1 - z0 - k * size)
        else:
            j, i = divmod(zeta - self.end - 1, size)
            k, start, m = scanned + j, self.end + 1 + j * size, size
        if k not in self.blocks:
            t = self._terms(start, m)
            rest = self.rest if k < scanned else self.remainder(start + m - 1.0, float(t[-1]))
            self.blocks[k] = (_suffix_sums(t), self.after[k] if k < scanned else 0.0, rest)
        suffix, after, rest = self.blocks[k]
        lower = float(suffix[i]) + after
        return TailSumResult(lower + rest, *self.meta), lower

    def gap(self, zeta: int) -> float:
        """Sum of r^(-1/alpha) over [zeta, zeta0); DomainError where r is not positive."""
        return math.fsum(self.eq.inv_r_alpha(s) for s in range(zeta, self.eq.zeta0))


# tables kept at once; each holds 0.5 MB per default-size block looked up
_MAX_TABLES = 4


@functools.lru_cache(maxsize=_MAX_TABLES)
def _tail_table(eq: HalfLinearEquation, cfg: TailConfig) -> _TailTable:
    return _TailTable(eq, cfg)


def theta(eq: HalfLinearEquation, zeta: int, cfg: TailConfig = TailConfig()) -> TailSumResult:
    """Tail sum theta(zeta) = sum_{s=zeta}^{inf} r(s)^(-1/alpha), from one table per (eq, cfg).

    A registered closed form is checked against the table: past the truncation
    index it must lie in [partial sum, tail_bound]; before it, match a certified
    or power-law value; otherwise only the partial sum, a lower bound, can check
    it and it is reported uncertified.  Raises NonConvergentError when the terms
    fail the convergence screen.
    """
    zeta = int(zeta)
    if zeta < eq.zeta0:
        return theta_extended(eq, zeta, cfg)
    numeric, lower = _tail_table(eq, cfg).lookup(zeta)
    if eq.theta_closed_form is None:
        return numeric
    value = eq.theta_closed_form(zeta)
    if numeric.certified and zeta > numeric.truncation_index:
        upper = numeric.tail_bound
    elif numeric.certified or numeric.method == "poly_tail":
        lower = upper = numeric.value
    else:
        upper = math.inf
    tol = 1e-3 * max(1.0, abs(value))
    if not lower - tol <= value <= upper + tol:
        raise ValueError(f"registered closed form for theta({zeta}) = {value} lies outside "
                         f"[{lower}, {upper}] from the numeric tail sum")
    if upper == math.inf:
        return TailSumResult(value, zeta, None, False, "closed_form_unverified")
    return TailSumResult(value, zeta, 0.0, True, "closed_form")


def theta_extended(eq: HalfLinearEquation, zeta: int, cfg: TailConfig = TailConfig()) -> TailSumResult:
    """theta at possibly under-domain indices via theta(z) = theta(zeta0) + sum_{s=z}^{zeta0-1} r^(-1/alpha)(s).

    Raises DomainError when r is not evaluable (or not positive) on the gap.
    """
    if zeta >= eq.zeta0:
        return theta(eq, zeta, cfg)
    base = theta(eq, eq.zeta0, cfg)
    gap = _tail_table(eq, cfg).gap(zeta)
    return replace(base, value=base.value + gap, method=base.method + "+extension")


def classify_form(eq: HalfLinearEquation, cfg: TailConfig = TailConfig()) -> FormClass:
    """Canonical / non-canonical / inconclusive, certifying rather than guessing.

    Canonical is declared only on a divergence witness (terms bounded away
    from zero on a trailing window); non-canonical only when the tail sum
    certifies finite.  Polynomially-decaying tails without a registered
    closed form stay inconclusive.
    """
    try:
        res = theta(eq, eq.zeta0, cfg)
    except NonConvergentError:
        return FormClass.CANONICAL
    if res.certified:
        return FormClass.NON_CANONICAL
    return FormClass.INCONCLUSIVE


@dataclass(frozen=True)
class Violation:
    hypothesis: str  # "H1" or "H2"
    index: Optional[int]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    horizon: int
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def _offence(hyp: str, name: str, rel: str, seq: Sequence, z: int) -> tuple:
    """(the violation seq(z) makes or None, the scalar value seq(z))."""
    try:
        v = seq(z)
    except DomainError as exc:
        return Violation(hyp, z, f"{name} not evaluable: {exc}"), math.nan
    if v < 0 or (v == 0 and hyp == "H1"):
        return Violation(hyp, z, f"{name}({z}) = {v} {rel} 0"), v
    return None, v


def _first_violation(hyp: str, name: str, rel: str, seq: Sequence, lo: int, hi: int) -> tuple:
    """(first offender on [lo, hi], or None and whether some value is positive).

    The column finds the offender and the scalar seq(z) words it.  Where the
    column cannot be evaluated, or the scalar value there is no offence, the
    per-index loop decides, so the report is the one the loop gives.
    """
    try:
        v = seq.eval_array(np.arange(lo, hi + 1))
    except Exception:  # the loop meets the same failure at its first index and words it
        v = None
    if v is not None:
        bad = ~np.isfinite(v) | ((v <= 0) if hyp == "H1" else (v < 0))
        if not bad.any():
            return None, bool((v > 0).any())
        found, _ = _offence(hyp, name, rel, seq, lo + int(np.argmax(bad)))
        if found is not None:
            return found, False
    positive = False
    for z in range(lo, hi + 1):
        found, v = _offence(hyp, name, rel, seq, z)
        if found is not None:
            return found, False
        positive = positive or v > 0
    return None, positive


def validate(eq: HalfLinearEquation, horizon: int) -> ValidationReport:
    """Sample r and q on [zeta0, horizon] and report violated hypotheses.

    H1: r > 0 everywhere sampled.  H2: q >= 0 everywhere sampled and q > 0
    somewhere on the horizon.  Violations are report entries, not failures.
    """
    if horizon <= eq.zeta0:
        raise ValueError(f"horizon must exceed zeta0 = {eq.zeta0}")
    violations: list[Violation] = []
    for hyp, name, seq, rel in (("H1", "r", eq.r, "<="), ("H2", "q", eq.q, "<")):
        found, positive = _first_violation(hyp, name, rel, seq, eq.zeta0, horizon)
        if found is not None:
            violations.append(found)
        elif hyp == "H2" and not positive:
            violations.append(
                Violation("H2", None, f"q is identically zero on [{eq.zeta0}, {horizon}]")
            )
    # first offenders in index order; H1 before H2 at the same index (stable sort)
    violations.sort(key=lambda v: math.inf if v.index is None else v.index)
    return ValidationReport(horizon=horizon, violations=tuple(violations))
