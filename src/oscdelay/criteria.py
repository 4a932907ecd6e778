"""Oscillation criterion evaluators built on a shared divergence/limsup probe.

Each evaluator samples the running quantity its criterion asks about over a
finite horizon and turns the probe's assessment into an evidenced verdict.
A verdict is "certified" only when a witness backs the divergence claim
(terms bounded away from zero on a trailing window); otherwise it is at most
numerically suggested.
"""
from __future__ import annotations

import enum
import math
from collections import abc
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .equation import (TREND_TOL, HalfLinearEquation, _fit_power_exponent, _geometric_ratio,
                       tail_shortfall, theta_window, validate)
from .errors import StageError

# canonical criterion identifiers
THM21 = "Thm21"
THM22A = "Thm22A"
THM22B = "Thm22B"
LEM21 = "Lem21"
THM23 = "Thm23"
CANONICAL_SUM_Q = "CanonicalSumQ"

CRITERION_IDS = (THM21, THM22A, THM22B, LEM21, THM23)
HORIZON = 200  # a run that sets no horizon reads [zeta0, zeta0 + HORIZON]


class ProbeStatus(enum.Enum):
    CERTIFIED_DIVERGES = "certified_diverges"
    DIVERGES_SUGGESTED = "diverges_suggested"
    CONVERGES_SUGGESTED = "converges_suggested"
    UNDECIDED = "undecided"


# The probe's own thresholds; the ratio certificate and the trend test are the tail sums'.
TOL_ABS = 1e-12          # terms all at most this suggest convergence
GROWTH_FRAC = 0.02       # material partial-sum growth over the last half
CONVERGED_FRAC = 1e-9    # partial-sum growth over the last half that counts as none
P_CONVERGE = 1.1         # fitted term exponent above which the sum converges
P_DIVERGE = 0.95         # fitted term exponent below which it diverges
MIN_TERMS = 8            # fewer terms are undecided
THM23_MARGIN = 1e-6      # Thm23: a limsup estimate above 1 + this suggests the criterion holds


@dataclass(frozen=True)
class DivergenceAssessment:
    status: ProbeStatus
    last_partial: float
    growth_exponent_estimate: Optional[float] = None
    witness_floor: Optional[float] = None   # c > 0 with terms >= c on the trailing window
    witness_onset: Optional[int] = None
    tail_bound: Optional[float] = None
    term_exponent_estimate: Optional[float] = None


@np.errstate(over="ignore")  # a partial sum past float range is +inf, which reads as divergence
def divergence_probe(terms, start_index: int = 1) -> DivergenceAssessment:
    """Assess sum(terms) for divergence from a finite sample of non-negative terms.

    The sample ends before its first non-finite term: an overflowed or NaN term
    witnesses nothing, so the finite prefix is judged as any sample is.
    Convergence is suggested by the tail sums' tests: the geometric-ratio
    certificate on the trailing terms, else a power-law fit over the trailing
    half with exponent at least P_CONVERGE.
    """
    t = np.asarray(terms, dtype=float)
    if (t < 0).any():  # NaN compares false: it is no negative term
        raise ValueError("divergence probe requires non-negative terms")
    finite = np.isfinite(t)
    if not finite.all():
        t = t[:int(np.argmax(~finite))]

    n = t.size
    partials = np.cumsum(t)
    last = float(partials[-1]) if n else 0.0
    if n < MIN_TERMS:
        return DivergenceAssessment(ProbeStatus.UNDECIDED, last_partial=last)
    if float(t.max()) <= TOL_ABS:
        return DivergenceAssessment(ProbeStatus.CONVERGES_SUGGESTED, last_partial=last)

    # divergence witness: trailing-window minimum that has stopped decreasing
    w = max(MIN_TERMS // 2, n // 8)
    if n >= 2 * w:
        m_prev = float(t[-2 * w:-w].min())
        m_last = float(t[-w:].min())
        if m_last > 0 and m_last >= (1.0 - TREND_TOL) * m_prev:
            return DivergenceAssessment(
                ProbeStatus.CERTIFIED_DIVERGES,
                last_partial=last,
                witness_floor=min(m_last, m_prev),
                witness_onset=start_index + n - 2 * w,
            )

    rho = _geometric_ratio(t)
    if rho is not None:
        bound = float(t[t > 0][-1]) * rho / (1.0 - rho)
        return DivergenceAssessment(
            ProbeStatus.CONVERGES_SUGGESTED, last_partial=last, tail_bound=bound
        )

    half = n // 2
    s = np.arange(start_index + half, start_index + n, dtype=float)
    p_hat = _fit_power_exponent(s, t[half:])
    if p_hat is not None and p_hat >= P_CONVERGE:
        return DivergenceAssessment(
            ProbeStatus.CONVERGES_SUGGESTED, last_partial=last, term_exponent_estimate=p_hat
        )

    # growth of the partial sums over the trailing half
    s_half = float(partials[half - 1]) if half >= 1 else 0.0
    growth = None
    if last > 0 and s_half > 0:
        growth = math.log(last / s_half) / math.log(2) if last > s_half else 0.0
        rel_growth = (last - s_half) / last
        if rel_growth >= GROWTH_FRAC:
            return DivergenceAssessment(
                ProbeStatus.DIVERGES_SUGGESTED,
                last_partial=last,
                growth_exponent_estimate=growth,
                term_exponent_estimate=p_hat,
            )
        if rel_growth <= CONVERGED_FRAC:
            return DivergenceAssessment(
                ProbeStatus.CONVERGES_SUGGESTED, last_partial=last,
                term_exponent_estimate=p_hat,
            )
    if p_hat is not None and p_hat <= P_DIVERGE:
        return DivergenceAssessment(
            ProbeStatus.DIVERGES_SUGGESTED, last_partial=last,
            growth_exponent_estimate=growth, term_exponent_estimate=p_hat,
        )
    return DivergenceAssessment(
        ProbeStatus.UNDECIDED, last_partial=last,
        growth_exponent_estimate=growth, term_exponent_estimate=p_hat,
    )


class VerdictStatus(enum.Enum):
    CERTIFIED_HOLDS = "certified_holds"
    NUMERICALLY_SUGGESTED = "numerically_suggested"
    NUMERICALLY_FAILS = "numerically_fails"
    INCONCLUSIVE = "inconclusive"


class EvidenceRow(NamedTuple):
    """One sampled index of a criterion's series; its fields name the JSON keys and CSV columns."""
    zeta: int
    term: float
    partial_sum: float
    running_value: float


def _python(values):
    """A numpy array or scalar as Python values (tolist), anything else as it is."""
    return values.tolist() if isinstance(values, (np.ndarray, np.generic)) else values


class Evidence(abc.Sequence):
    """A verdict's evidence as four columns, read as a sequence of EvidenceRow.

    A criterion gives float64 arrays, `running_value` being the `partial_sum` array
    itself when the running value is the partial sum, so a writer formats it once.
    Rows hold Python values: iteration lists each column, an index only its cells.
    """
    __slots__ = EvidenceRow._fields

    def __init__(self, zeta, term, partial_sum, running_value):
        self.zeta, self.term = zeta, term
        self.partial_sum, self.running_value = partial_sum, running_value

    def __len__(self) -> int:
        return len(self.term)

    def __iter__(self):
        return map(EvidenceRow, *(_python(getattr(self, f)) for f in self.__slots__))

    def __getitem__(self, i):
        cells = [_python(getattr(self, f)[i]) for f in self.__slots__]
        return tuple(map(EvidenceRow, *cells)) if isinstance(i, slice) else EvidenceRow(*cells)

    def __eq__(self, other):
        return isinstance(other, Evidence) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Evidence({tuple(self)!r})"


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    status: VerdictStatus
    conclusion: str
    evidence: Evidence = field(default_factory=tuple)  # or EvidenceRows, taken as columns
    probe: Optional[DivergenceAssessment] = None
    flags: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.evidence, Evidence):  # each zeta is kept as given
            columns = tuple(map(list, zip(*self.evidence))) or ([], [], [], [])
            object.__setattr__(self, "evidence", Evidence(*columns))

    @property
    def holds(self) -> bool:
        return self.status in (VerdictStatus.CERTIFIED_HOLDS, VerdictStatus.NUMERICALLY_SUGGESTED)


_VERDICT_OF_PROBE = {
    ProbeStatus.CERTIFIED_DIVERGES: VerdictStatus.CERTIFIED_HOLDS,
    ProbeStatus.DIVERGES_SUGGESTED: VerdictStatus.NUMERICALLY_SUGGESTED,
    ProbeStatus.CONVERGES_SUGGESTED: VerdictStatus.NUMERICALLY_FAILS,
    ProbeStatus.UNDECIDED: VerdictStatus.INCONCLUSIVE,
}


def _valid_q(eq: HalfLinearEquation, horizon: int) -> np.ndarray:
    """q on [zeta0, zeta0 + horizon), once the hypotheses hold on [zeta0, zeta0 + horizon];
    so r > 0 and r, q are finite on it."""
    report = validate(eq, eq.zeta0 + horizon)
    # an identically-zero q (violation without an offending index) is allowed
    # through: the evaluators then report all-zero terms as a failing verdict
    hard = [v for v in report.violations if v.index is not None]
    if hard:
        first = hard[0]
        raise StageError(f"hypothesis {first.hypothesis} violated: {first.detail}")
    return eq.q.column(eq.zeta0, horizon)


def _tail_gate(criterion: str, eq: HalfLinearEquation) -> Optional[CriterionVerdict]:
    """None when the paper's condition sum r^(-1/alpha) < inf is established, so a
    criterion may read theta; otherwise its inconclusive verdict, flagged with the reason."""
    method = tail_shortfall(eq)
    if method is None:
        return None
    return CriterionVerdict(criterion, VerdictStatus.INCONCLUSIVE, "every solution oscillates",
                            flags=(f"sum of r^(-1/alpha) not established finite: theta({eq.zeta0}) "
                                   f"method {method}; criterion not applied",))


@np.errstate(over="ignore")  # a partial sum past float range is reported as Infinity
def _evidence(start: int, term: np.ndarray, running: Optional[np.ndarray] = None) -> Evidence:
    """The evidence columns from index `start`; partial sums of `term` run left to right
    (np.cumsum), and the running value is the partial sum unless given."""
    partial = np.cumsum(term)
    return Evidence(range(start, start + len(term)), term, partial,
                    partial if running is None else running)


def _series_verdict(criterion, conclusion, start, term) -> CriterionVerdict:
    """The one path from a term column to a verdict: evidence columns and the probe."""
    probe = divergence_probe(term, start_index=start)
    return CriterionVerdict(criterion, _VERDICT_OF_PROBE[probe.status], conclusion,
                            _evidence(start, term), probe)


@np.errstate(over="ignore")  # a running sum past float range is +inf
def _exclusive_sum(x: np.ndarray) -> np.ndarray:
    """out[i] = x[0] + ... + x[i-1], added left to right; out[0] = 0."""
    out = np.zeros_like(x)
    np.cumsum(x[:-1], out=out[1:])
    return out


@np.errstate(over="ignore", invalid="ignore")
def _weighted(w: np.ndarray, th: np.ndarray, p: float) -> np.ndarray:
    """w * th^p: 0 where w = 0 (not 0 * inf = NaN); an overflow is +inf."""
    return np.multiply(w, th ** p, out=w.copy(), where=w != 0)


def _root_series(eq: HalfLinearEquation, weights: np.ndarray) -> np.ndarray:
    """((1/r(z)) * sum_{s=zeta0}^{z-1} weights(s))^(1/alpha) from z = zeta0; an overflow is +inf."""
    with np.errstate(over="ignore"):
        r = eq.r.column(eq.zeta0, len(weights))
        return (_exclusive_sum(weights) / r) ** (eq.alpha.den / eq.alpha.num)


def crit_thm21(eq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    """Series of ((1/r(z)) * sum_{s=zeta0}^{z-1} q(s))^(1/alpha)."""
    return _series_verdict(THM21, "every solution oscillates or tends to zero", eq.zeta0,
                           _root_series(eq, _valid_q(eq, horizon)))


def crit_thm22a(eq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    """Series of ((1/r(z)) * sum_{s=zeta0+sigma}^{z-1} q(s) theta^alpha(s - sigma))^(1/alpha).

    The inner sum starts at zeta0 + sigma, so theta is one window from zeta0.  From zeta0 it
    would differ by a constant: the series are comparable where it is unbounded, and where it
    is bounded both compare with sum r^(-1/alpha) < inf.  So they diverge together.
    """
    q = _valid_q(eq, horizon)
    if gated := _tail_gate(THM22A, eq):
        return gated
    th = np.zeros(horizon)  # a zero weight keeps s < zeta0 + sigma out of the inner sum
    th[eq.sigma:] = theta_window(eq, eq.zeta0, max(horizon - eq.sigma, 0))
    return _series_verdict(THM22A, "every solution oscillates", eq.zeta0,
                           _root_series(eq, _weighted(q, th, eq.alpha.value)))


def crit_thm22b(eq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    """Series of q(s) * theta^(alpha+1)(s + 1)."""
    q = _valid_q(eq, horizon)
    if gated := _tail_gate(THM22B, eq):
        return gated
    th = theta_window(eq, eq.zeta0 + 1, horizon)
    term = _weighted(q, th, eq.alpha.value + 1.0)
    return _series_verdict(THM22B, "every solution oscillates", eq.zeta0, term)


def crit_lem21(eq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    """Series of q(z) itself."""
    return _series_verdict(LEM21, "every eventually positive solution is eventually decreasing",
                           eq.zeta0, _valid_q(eq, horizon))


def crit_thm23(eq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    """limsup of v(z) = theta^alpha(z) * sum_{s=zeta1}^{z-1} q(s), compared against 1.

    The limsup is estimated as the supremum of v over the trailing half of the
    horizon, with zeta1 = zeta0: since theta(z) -> 0, a later zeta1 moves
    individual v values but not the limsup.
    """
    q = _valid_q(eq, horizon)
    if gated := _tail_gate(THM23, eq):
        return gated
    q_prev = np.concatenate(([0.0], q))[:horizon]  # evidence term: q(z - 1), 0 at zeta0
    v = _weighted(_exclusive_sum(q), theta_window(eq, eq.zeta0, horizon), eq.alpha.value)
    v[~np.isfinite(v)] = np.inf

    tail = v[horizon // 2:]
    estimate = float(tail.max()) if tail.size else 0.0
    if estimate > 1.0 + THM23_MARGIN:
        status = VerdictStatus.NUMERICALLY_SUGGESTED
    elif estimate <= 1.0:
        status = VerdictStatus.NUMERICALLY_FAILS
    else:
        status = VerdictStatus.INCONCLUSIVE
    probe = DivergenceAssessment(
        ProbeStatus.DIVERGES_SUGGESTED if status is VerdictStatus.NUMERICALLY_SUGGESTED
        else ProbeStatus.UNDECIDED,
        last_partial=estimate,
    )
    return CriterionVerdict(THM23, status, "every solution oscillates",
                            _evidence(eq.zeta0, q_prev, v), probe)


_EVALUATORS = {
    THM21: crit_thm21,
    THM22A: crit_thm22a,
    THM22B: crit_thm22b,
    LEM21: crit_lem21,
    THM23: crit_thm23,
}


def evaluate_criterion(criterion: str, eq: HalfLinearEquation, horizon: int) -> CriterionVerdict:
    try:
        fn = _EVALUATORS[criterion]
    except KeyError:
        raise ValueError(f"unknown criterion {criterion!r}; known: {', '.join(CRITERION_IDS)}")
    return fn(eq, horizon)
