"""Equation model, tail sums and canonical-form classification.

The model is the second-order half-linear delay recurrence

    D(r(z) * (D x(z))^alpha) + q(z) * x^alpha(d(z)) = 0,    z >= zeta0,

with forward difference D, delayed index d(z) = z - sigma or z - sigma + 1 (the
first with sigma - 1), and alpha an odd/odd rational.  The key coefficient
functionals are the partial sums R(z) = sum_{s=zeta0}^{z-1} r(s)^(-1/alpha) and
the tail sums theta(z) = sum_{s=z}^{inf} r(s)^(-1/alpha); the equation is
canonical when R diverges and non-canonical when theta is finite.
"""
from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import expr
from .errors import DomainError, NonConvergentError, StageError
from .power import RationalExponent
from .sequences import Sequence


class DelayForm(enum.Enum):
    MINUS_SIGMA = "delay"            # forcing term at z - sigma
    MINUS_SIGMA_PLUS_ONE = "delay_plus_one"  # forcing term at z - sigma + 1


class FormClass(enum.Enum):
    CANONICAL = "canonical"
    NON_CANONICAL = "non_canonical"
    INCONCLUSIVE = "inconclusive"


# Tail-sum truncation: terms are summed in blocks of BLOCK until one is at most
# TAIL_TOL, or to MAX_TERMS.  The result is certified only when the geometric-ratio
# certificate (_geometric_ratio) holds on the terms summed, with
# tail_bound = term * rho / (1 - rho).  When it fails but the terms decay like a
# power s^(-p) with p > POLY_MIN_EXPONENT, an uncertified power-law tail estimate
# is added: the sum of the terms' expansion in 1/s (expr.expansion, EXPANSION_ORDER
# powers past the leading one) where it holds past the block, else of C*s^(-p) with
# the fitted p.  An expansion whose local exponents all pass POLY_MIN_EXPONENT past
# the first block, with a term at most TAIL_TOL by MAX_TERMS, ends the pass there.
# Otherwise summation stops, uncertified, after a block of zeros or at
# MAX_TERMS.  Terms are judged divergent when a block's minimum is not TREND_TOL below the last,
# unless the expansion proves every local exponent past the block above POLY_MIN_EXPONENT.
TAIL_TOL = 1e-12
CLOSED_FORM_RTOL = 1e-9  # a registered closed form's band around theta, times max(1, |form|)
MAX_TERMS = 1_000_000
BLOCK = 65536
# The decay tests shared by the tail sums and the criteria's divergence probe.
RATIO_WINDOW = 8        # ratios in the geometric certificate's trailing window
RATIO_MAX = 0.99        # largest ratio the certificate accepts
RATIO_RISE = 1e-12      # relative rise between consecutive ratios that refuses it
TREND_TOL = 1e-3        # a running minimum must fall by this fraction, or the terms look divergent
# tail sums only
POLY_MIN_EXPONENT = 1.05  # fitted exponent above which a power-law remainder is estimated
FIT_WINDOW = 64           # trailing terms the power-law fit reads
WIDE_FIT_SPAN = 1e-6      # below this share of the stop index, the fit reads [stop, 2 stop] instead
EXPANSION_ORDER = 8       # powers of 1/s the expansion remainder sums; the next one bounds what it omits


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

    def _establishes_finite(self) -> bool:
        """The paper's condition sum r^(-1/alpha) < inf: a certified sum, or a power-law
        tail estimate (uncertified, but accurate enough for the quantities built on theta)."""
        return self.certified or self.method == "poly_tail"


@dataclass(frozen=True)
class HalfLinearEquation:
    """The equation's tail table (_table), kept on it at the first theta lookup, and
    its validation reports by horizon (_reports) lie outside equality, hashing and pickles."""

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
        # so that every index from zeta0 - sigma to zeta0 + MAX_TERMS is an exact float
        if abs(self.zeta0) > 2 ** 52 or self.sigma > 2 ** 52:
            raise ValueError("|zeta0| and sigma must be at most 2^52")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_table", "_reports")}

    @property
    def lag(self) -> int:
        """d in d(z) = z - d: sigma in the delay form, sigma - 1 in the z - sigma + 1 form."""
        return self.sigma if self.delay_form is DelayForm.MINUS_SIGMA else self.sigma - 1

    def delayed_index(self, zeta: int) -> int:
        return zeta - self.lag


def _fused_power(r: Sequence, alpha: RationalExponent) -> Optional[tuple]:
    """(B, e, lo, hi) when r is B^(a/b) with a literal ratio a/b != 0: r^(-1/alpha) is
    B^e, e = -(a/b)/alpha rounded once, and a term t in [lo, hi] is normal and keeps
    r = t^(-alpha) in [2^-1021, 2^1022], normal floats; None otherwise."""
    node = r.ast
    power = isinstance(node, expr.Binary) and node.op == "^"
    ratio = expr._literal_ratio(node.right) if power else None
    if ratio is None or ratio[0] == 0:
        return None
    (a, b), m, n = ratio, alpha.num, alpha.den
    # integer edges, clamped before the power: 2.0 ** (1021 * 3) overflows at alpha 1/3
    lo = math.ldexp(1.0, max(-1022, -(1022 * n // m)))
    hi = math.ldexp(1.0, min(1023, 1021 * n // m))
    return Sequence(ast=node.left), -(a * n) / (b * m), lo, hi


def _inv_r_alpha(r: Sequence, alpha: RationalExponent, s: np.ndarray) -> np.ndarray:
    """r(s)^(-1/alpha), NaN where r is infinite; raises DomainError unless r > 0,
    the scalar call's error where r is NaN.

    Where _fused_power applies, a term is the one power B^e where B > 0 and the
    term lies in its band; every other term, and each error, is the two-step
    column's, (r's column)^(-1/alpha)."""
    fused = _fused_power(r, alpha)
    if fused is not None:
        base, e, lo, hi = fused
        b = base.eval_array(s)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = b ** e
        ok = (b > 0) & (t >= lo) & (t <= hi)
        if ok.all():
            return t
    rv = r.eval_array(s)
    if rv.size and not np.all(rv > 0):
        i = int(np.argmax(~(rv > 0)))
        bad = int(np.asarray(s)[i])
        if np.isnan(rv[i]):
            r(bad)  # raises as the scalar call does
        raise DomainError(f"r({bad}) is not positive")
    with np.errstate(over="ignore"):
        two = rv ** (-alpha.den / alpha.num)
    two[np.isinf(rv)] = np.nan
    return two if fused is None else np.where(ok, t, two)


@np.errstate(over="ignore")  # a sum past the float range is +inf, then a DomainError
def _sum_inv_r_alpha(eq: HalfLinearEquation, lo: int, hi: int) -> float:
    """Sum of r^(-1/alpha) over [lo, hi); DomainError where r is not positive, a
    term is not finite or the sum passes the float range."""
    terms = _inv_r_alpha(eq.r, eq.alpha, np.arange(lo, hi, dtype=float))
    if not np.all(np.isfinite(terms)):
        bad = lo + int(np.argmax(~np.isfinite(terms)))
        raise DomainError(f"r^(-1/alpha) not finite at index {bad}")
    total = float(np.sum(terms))
    if total == math.inf:
        raise DomainError(f"the sum of r^(-1/alpha) on [{lo}, {hi}) exceeds the float range")
    return total


def R_partial(eq: HalfLinearEquation, zeta: int) -> float:
    """Partial sum of r^(-1/alpha) from zeta0 to zeta - 1 (empty sum = 0)."""
    if zeta < eq.zeta0:
        raise DomainError(f"R is defined for zeta >= zeta0 = {eq.zeta0}, got {zeta}")
    return _sum_inv_r_alpha(eq, eq.zeta0, zeta)


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


def _geometric_ratio(t: np.ndarray) -> Optional[float]:
    """The geometric-ratio certificate on the trailing terms of t: rho, the largest
    ratio of consecutive positive terms among the last RATIO_WINDOW + 1, when no
    ratio exceeds RATIO_MAX and none rises more than RATIO_RISE relative above the
    one before it; None otherwise.  Rising ratios are the signature of polynomial
    decay, where t * rho / (1 - rho) is not a bound.  A run that underflowed to
    zero needs two positive terms.  The test sees only the window: it does not
    prove that the ratios keep falling past it.
    """
    win = t[t > 0][-(RATIO_WINDOW + 1):]
    if win.size < (2 if t[-1] == 0.0 else RATIO_WINDOW + 1):
        return None
    ratios = win[1:] / win[:-1]
    rho = float(ratios.max())
    if rho > RATIO_MAX or bool((ratios[1:] > ratios[:-1] * (1.0 + RATIO_RISE)).any()):
        return None
    return rho


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


@np.errstate(over="ignore", invalid="ignore")  # past the float range: inf or NaN, which lookup refuses
def _suffix_sums(t: np.ndarray) -> np.ndarray:
    """out[i] = sum(t[i:]), compensated after Neumaier (1974): TwoSum recovers each
    rounding error of the reversed np.cumsum, and their running sum is added back."""
    rev = t[::-1]
    acc = np.cumsum(rev)
    prev = np.concatenate(([0.0], acc[:-1]))
    back = acc - prev
    return (acc + np.cumsum((prev - (acc - back)) + (rev - back)))[::-1]


def _fsum(values: list) -> float:
    """math.fsum of non-negative values; +inf past the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


class _TailTable:
    """The truncation loop run once from zeta0 in blocks anchored there (past the
    scanned range, at its end), so a block evaluated again holds the same terms.
    theta(z) = suffix sum of z's block + sums of later scanned blocks + remainder.
    """

    def __init__(self, r: Sequence, alpha: RationalExponent, zeta0: int):
        self.r, self.alpha, self.zeta0 = r, alpha, zeta0
        # the terms r^(-1/alpha) as s^p (c0 + c1/s + ...), and one more power to bound the rest
        power = expr.Unary("-", expr.Binary("/", *map(expr.Literal, (float(alpha.den), float(alpha.num)))))
        self._series = expr.expansion(expr.Binary("^", r.ast, power), EXPANSION_ORDER + 1)
        sums: list = []
        *self.meta, self.remainder = self._scan(sums)
        self.after = [_fsum(sums[k + 1:]) for k in range(len(sums))]
        self.rest = self.remainder(self.end, self._t_end)
        # block number -> (suffix sums, later blocks' sum, remainder); block 0 from the pass
        self.blocks = {0: (_suffix_sums(self._first), self.after[0], self.rest)}
        del self._first

    def _terms(self, s: int, m: int) -> tuple:
        """(the terms on [s, s + m), 0 where r is infinite; the first such offset, or m)."""
        t = _inv_r_alpha(self.r, self.alpha, np.arange(s, s + m, dtype=float))
        if np.isinf(t).any():
            raise DomainError(f"r^(-1/alpha) not finite at index {s + int(np.argmax(np.isinf(t)))}")
        inf_r = np.isnan(t)
        t[inf_r] = 0.0
        return t, int(np.argmax(inf_r)) if inf_r.any() else m

    def _certificate(self, hist: np.ndarray, stop: int) -> Optional[tuple]:
        """(T, tail bound, certified, method, remainder) from hist, the terms before stop; or None."""
        rho = _geometric_ratio(hist)
        if rho is not None:
            # underflowed to zero after a decaying run: tail is below TAIL_TOL
            bound = TAIL_TOL if hist[-1] == 0.0 else float(hist[-1]) * rho / (1.0 - rho)
            return (stop - 1, bound, True, "geometric",
                    lambda s_last, t_last: t_last * rho / (1.0 - rho))
        p = _fit_power_exponent(*self._fit_sample(hist, stop))
        if p is not None and p > POLY_MIN_EXPONENT and hist[-1] > 0:
            found = self._expansion()
            return (stop - 1, None, False, "poly_tail", found[1] if found else
                    lambda s_last, t_last: _poly_tail_estimate(s_last, t_last, p))
        return None

    def _fit_sample(self, hist: np.ndarray, stop: int) -> tuple:
        """(indices, terms) the power-law fit reads: hist, the terms before stop; or, where
        hist spans under WIDE_FIT_SPAN of stop and so nearly one ln s, the terms at
        FIT_WINDOW points over [stop, 2 stop] when all are finite and positive, each
        scaled by the first so that the logarithms keep their digits."""
        if hist.size < WIDE_FIT_SPAN * stop:
            wide = np.linspace(stop, 2.0 * stop, FIT_WINDOW)
            try:
                t = _inv_r_alpha(self.r, self.alpha, wide)
            except DomainError:  # r need not evaluate past the scan
                t = None
            if t is not None and np.all((t > 0) & (t < math.inf)):
                return wide / stop, t / t[0]
        return np.arange(stop - hist.size, stop, dtype=float), hist

    @np.errstate(over="ignore")  # a block sum past float range is +inf; the trend screen judges the terms
    def _scan(self, sums: list) -> tuple:
        """Sum blocks to a tail certificate: (T, tail bound, certified, method, remainder)."""
        z0, last = self.zeta0, self.zeta0 + MAX_TERMS
        hist = np.empty(0)  # the last terms summed, up to the current stop
        prev_min: Optional[float] = None  # the trend screen's last block
        keep = max(FIT_WINDOW, RATIO_WINDOW + 1)
        for s in range(z0, last, BLOCK):
            m = min(BLOCK, last - s)
            t, r_inf = self._terms(s, m)
            if s == z0:
                self._first = t
            sums.append(float(np.sum(t)))
            self.end, self._t_end = s + m - 1, float(t[-1])
            below = t <= TAIL_TOL
            stopped = bool(below.any())
            n = int(np.argmax(below)) + 1 if stopped else m
            hist = np.concatenate([hist, t[:n]])[-keep:]
            found = self._certificate(hist, s + n) if stopped else None
            # only the terms summed up to the stop need r: validate's H1 fails there
            if r_inf < (n if found else m):
                raise DomainError(f"r({s + r_inf}) is not finite")
            if found:
                return found
            if not t.any():  # all underflowed: no float pass can tell whether the tail converges
                return self.end, None, False, "underflow", lambda s_last, t_last: 0.0
            # past a stop, tiny terms that decay too slowly to bound: keep summing
            hist = np.concatenate([hist, t[n:]])[-keep:]
            # r's expansion proves every local exponent past this block above POLY_MIN_EXPONENT
            expanded = (series := self._expansion()) and series[0] > POLY_MIN_EXPONENT
            block_min = float(t.min())
            if not expanded and prev_min is not None \
                    and 0 < block_min >= (1.0 - TREND_TOL) * prev_min:
                raise NonConvergentError(
                    f"tail terms not decreasing near index {s}: series looks divergent")
            prev_min = block_min
            # the first block's terms meet r's expansion: it sums the rest, as the later
            # blocks' power-law fit would, when their local exponents all pass it
            if s == z0 and expanded and self._stops_by_max_terms():
                return self.end, None, False, "poly_tail", series[1]
        return self.end, None, False, "max_terms", lambda s_last, t_last: 0.0

    def _expansion(self) -> Optional[tuple]:
        """(exponent floor, remainder) when the term's expansion in 1/s,
        t(s) = C s^-q (1 + a_1/s + ... + a_K/s^K) with K = EXPANSION_ORDER, holds past
        the block ending at self.end; None otherwise.  It needs q > POLY_MIN_EXPONENT
        and, at N = self.end + 1,

        - |a_(K+1)| N^-(K+1), the first term left out, below 2^-52;
        - sum |a_j| N^-j below 1/2, so no base changes sign past N;
        - the expansion at N - 1 within 2^-40 relative of the pass's own term there,
          a normal float.

        Every local exponent -d ln t / d ln s past N is then at least the floor
        q - 2 sum j |a_j| N^-j.  The remainder past s_last sums the expansion one
        power of s at a time with _poly_tail_estimate's formula, scaled to the term
        t_last at s_last.
        """
        if self._series is None or not self._t_end >= sys.float_info.min:
            return None
        (pn, pd), c = self._series
        q, j, n = -pn / pd, np.arange(EXPANSION_ORDER + 2.0), self.end + 1.0
        if not q > POLY_MIN_EXPONENT:  # a power-law fit may pass where the sum diverges
            return None
        a = np.array(c) / c[0]
        w = np.abs(a) * n ** -j
        if not (w[-1] < 2.0 ** -52 and w[1:-1].sum() < 0.5):
            return None
        level = math.log(c[0]) - q * math.log(n - 1.0) + math.log(a @ (n - 1.0) ** -j)
        if not abs(level - math.log(self._t_end)) <= 2.0 ** -40:
            return None
        a, j = a[:-1], j[:-1]

        def remainder(s_last: float, t_last: float) -> float:
            w = a * s_last ** -j
            return t_last * float(w @ _poly_tail_estimate(s_last, 1.0, q + j)) / float(w.sum())
        return q - 2.0 * float((j * w[:-1]).sum()), remainder

    def _stops_by_max_terms(self) -> bool:
        """Whether the term at zeta0 + MAX_TERMS - 1 is finite and at most TAIL_TOL."""
        try:
            t = _inv_r_alpha(self.r, self.alpha, np.array([self.zeta0 + MAX_TERMS - 1.0]))
        except DomainError:
            return False
        return bool(t[0] <= TAIL_TOL)  # NaN where r is infinite

    def _block(self, zeta: int) -> tuple:
        """((suffix sums, later blocks' sum, remainder) of zeta's block, zeta's offset
        in it), for zeta >= zeta0; the block is built at its first read."""
        z0, scanned = self.zeta0, len(self.after)
        if zeta <= self.end:
            k, i = divmod(zeta - z0, BLOCK)
            start, m = z0 + k * BLOCK, min(BLOCK, self.end + 1 - z0 - k * BLOCK)
        else:
            j, i = divmod(zeta - self.end - 1, BLOCK)
            k, start, m = scanned + j, self.end + 1 + j * BLOCK, BLOCK
        if k not in self.blocks:
            t, _ = self._terms(start, m)
            rest = self.rest if k < scanned else self.remainder(start + m - 1.0, float(t[-1]))
            self.blocks[k] = (_suffix_sums(t), self.after[k] if k < scanned else 0.0, rest)
        return self.blocks[k], i

    def lookup(self, zeta: int) -> tuple:
        """(theta(zeta) for zeta >= zeta0, the partial sum in it: a certified lower bound).
        The one-index window in Python floats: a one-element numpy slice takes about 20 times as long."""
        (suffix, after, rest), i = self._block(zeta)
        lower = float(suffix[i]) + after
        if not math.isfinite(lower + rest):
            raise DomainError(f"theta({zeta}) exceeds the float range")
        return TailSumResult(lower + rest, *self.meta), lower

    @np.errstate(over="ignore")  # a sum past the float range is +inf, then a DomainError
    def window(self, lo: int, n: int) -> np.ndarray:
        """theta on [lo, lo + n) for lo >= zeta0, one slice (suffix + after) + rest of each
        block it meets: lookup's values and float operations, and its DomainError at the
        first index that raises."""
        parts, z, stop = [np.empty(0)], lo, lo + n
        while z < stop:
            (suffix, after, rest), i = self._block(z)
            part = (suffix[i:i + stop - z] + after) + rest
            bad = ~np.isfinite(part)
            if bad.any():
                raise DomainError(f"theta({z + int(np.argmax(bad))}) exceeds the float range")
            parts.append(part)
            z += part.size
        return np.concatenate(parts)


# tables the store keeps at once, besides those their equations hold; each
# holds 0.5 MB per block looked up
_MAX_TABLES = 4


# keyed on _TailTable's arguments (r, alpha, zeta0), the only inputs theta's tail sum has
_tail_table = functools.lru_cache(maxsize=_MAX_TABLES)(_TailTable)


def _table(eq: HalfLinearEquation) -> _TailTable:
    """eq's tail table, from the store at eq's first lookup and kept on eq after it,
    so later lookups neither hash nor compare eq."""
    try:
        return eq._table
    except AttributeError:
        object.__setattr__(eq, "_table", _tail_table(eq.r, eq.alpha, eq.zeta0))
        return eq._table


def theta(eq: HalfLinearEquation, zeta: int) -> TailSumResult:
    """Tail sum theta(zeta) = sum_{s=zeta}^{inf} r(s)^(-1/alpha), from one table per equation.

    A registered closed form is returned, certified, only where it lies within
    CLOSED_FORM_RTOL * max(1, |form|) of a certified or power-law value of the
    table.  Raises NonConvergentError when the terms fail the convergence screen,
    DomainError where a term or theta passes the float range, and StageError when
    the table cannot check the closed form or it disagrees.
    """
    zeta = int(zeta)
    if zeta < eq.zeta0:
        return theta_extended(eq, zeta)
    numeric = _table(eq).lookup(zeta)[0]
    if eq.theta_closed_form is None:
        return numeric
    value = eq.theta_closed_form(zeta)
    if not numeric._establishes_finite():
        raise StageError(f"registered closed form for theta({zeta}) cannot be checked: "
                         f"the numeric tail sum ended with method {numeric.method}")
    tol = CLOSED_FORM_RTOL * max(1.0, abs(value))
    if not abs(value - numeric.value) <= tol:
        raise StageError(f"registered closed form for theta({zeta}) = {value} lies outside "
                         f"[{numeric.value - tol}, {numeric.value + tol}] from the numeric tail sum")
    return TailSumResult(value, zeta, 0.0, True, "closed_form")


@np.errstate(over="ignore")  # a distance past the float range fails the band test, then raises
def theta_window(eq: HalfLinearEquation, lo: int, n: int) -> np.ndarray:
    """[theta(eq, z).value for z in [lo, lo + n)], lo >= zeta0, from one slice of the
    table per block: the same values bit for bit, a closed form's from its scalar
    calls, checked by theta's rule.  Where an index raises, the per-index calls run
    and raise what theta raises at the first such index."""
    zs = range(lo, lo + n)
    table = _table(eq)
    try:
        numeric = table.window(lo, n)
        if eq.theta_closed_form is None:
            return numeric
        values = np.array([eq.theta_closed_form(z) for z in zs], dtype=float)
        if TailSumResult(math.nan, *table.meta)._establishes_finite() and np.all(
                abs(values - numeric) <= CLOSED_FORM_RTOL * np.maximum(1.0, abs(values))):
            return values
    except DomainError:
        pass
    return np.array([theta(eq, z).value for z in zs], dtype=float)


def theta_extended(eq: HalfLinearEquation, zeta: int) -> TailSumResult:
    """theta at possibly under-domain indices via theta(z) = theta(zeta0) + sum_{s=z}^{zeta0-1} r^(-1/alpha)(s).

    Raises DomainError when r is not evaluable, not positive, or too small for a
    finite term on the gap, or when theta(zeta) passes the float range.
    """
    if zeta >= eq.zeta0:
        return theta(eq, zeta)
    gap = _sum_inv_r_alpha(eq, zeta, eq.zeta0)
    base = theta(eq, eq.zeta0)
    if base.value + gap == math.inf:
        raise DomainError(f"theta({zeta}) exceeds the float range")
    return replace(base, value=base.value + gap, method=base.method + "+extension")


def tail_shortfall(eq: HalfLinearEquation) -> Optional[str]:
    """None when theta(zeta0) establishes the paper's condition sum r^(-1/alpha) < inf;
    otherwise its method, which falls short.  NonConvergentError, a DomainError past
    the float range and a registered closed form's StageError propagate."""
    head = theta(eq, eq.zeta0)
    return None if head._establishes_finite() else head.method


def classify_form(eq: HalfLinearEquation) -> FormClass:
    """Canonical / non-canonical / inconclusive, certifying rather than guessing.

    Canonical is declared only on a divergence witness (terms bounded away
    from zero on a trailing window); non-canonical only when the tail sum
    certifies finite, stricter than tail_shortfall's poly_tail reading: power-law
    tails without a registered closed form stay inconclusive.  A term or theta
    past the float range is a DomainError, never a form.
    """
    try:
        res = theta(eq, eq.zeta0)
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


def _first_violation(hyp: str, name: str, rel: str, seq: Sequence, lo: int, hi: int) -> tuple:
    """(first offender on [lo, hi], or None and whether some value is positive).

    The column flags the candidate offenders and the scalar seq(z) confirms and
    words each, in index order, so the report is the one the per-index loop gives.
    """
    v = seq.column(lo, hi + 1 - lo)
    bad = ~np.isfinite(v) | ((v <= 0) if hyp == "H1" else (v < 0))
    positive = bool((v > 0).any())
    for z in (lo + np.flatnonzero(bad)).tolist():
        try:
            value = seq(z)
        except DomainError as exc:
            return Violation(hyp, z, f"{name} not evaluable: {exc}"), False
        if value < 0 or (value == 0 and hyp == "H1"):
            return Violation(hyp, z, f"{name}({z}) = {value} {rel} 0"), False
        positive = positive or value > 0
    return None, positive


def validate(eq: HalfLinearEquation, horizon: int) -> ValidationReport:
    """Sample r and q on [zeta0, horizon] and report violated hypotheses.

    H1: r > 0 everywhere sampled.  H2: q >= 0 everywhere sampled and q > 0
    somewhere on the horizon.  Violations are report entries, not failures.  Each
    horizon's report is kept on eq.
    """
    if horizon <= eq.zeta0:
        raise ValueError(f"horizon must exceed zeta0 = {eq.zeta0}")
    reports = vars(eq).setdefault("_reports", {})
    if horizon in reports:
        return reports[horizon]
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
    reports[horizon] = ValidationReport(horizon=horizon, violations=tuple(violations))
    return reports[horizon]
