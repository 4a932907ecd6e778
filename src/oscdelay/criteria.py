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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .equation import HalfLinearEquation, TailConfig, theta, theta_extended, validate
from .errors import DomainError, StageError

# canonical criterion identifiers
THM21 = "Thm21"
THM22A = "Thm22A"
THM22B = "Thm22B"
LEM21 = "Lem21"
THM23 = "Thm23"
CANONICAL_SUM_Q = "CanonicalSumQ"

CRITERION_IDS = (THM21, THM22A, THM22B, LEM21, THM23)


class ProbeStatus(enum.Enum):
    CERTIFIED_DIVERGES = "certified_diverges"
    DIVERGES_SUGGESTED = "diverges_suggested"
    CONVERGES_SUGGESTED = "converges_suggested"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ProbePolicy:
    trend_tol: float = 1e-3
    ratio_window: int = 8
    ratio_max: float = 0.99
    tol_abs: float = 1e-12
    growth_frac: float = 0.02     # material partial-sum growth over the last half
    converged_frac: float = 1e-9
    p_converge: float = 1.1       # fitted term exponent above which the sum converges
    p_diverge: float = 0.95
    min_terms: int = 8


@dataclass(frozen=True)
class DivergenceAssessment:
    status: ProbeStatus
    last_partial: float
    growth_exponent_estimate: Optional[float] = None
    witness_floor: Optional[float] = None   # c > 0 with terms >= c on the trailing window
    witness_onset: Optional[int] = None
    tail_bound: Optional[float] = None
    term_exponent_estimate: Optional[float] = None


def divergence_probe(
    terms, policy: ProbePolicy = ProbePolicy(), start_index: int = 1
) -> DivergenceAssessment:
    """Assess sum(terms) for divergence from a finite sample of non-negative terms."""
    t = np.asarray(terms, dtype=float)
    if t.size and float(np.nanmin(t)) < 0:
        raise ValueError("divergence probe requires non-negative terms")

    finite = np.isfinite(t)
    if not bool(finite.all()):
        # the first non-finite term decides: +inf overflowed, so the partial
        # sums grow without bound; a NaN says nothing about growth
        onset = int(np.argmax(~finite))
        partial = float(np.sum(t[:onset]))
        if np.isnan(t[onset]):
            return DivergenceAssessment(ProbeStatus.UNDECIDED, last_partial=partial)
        return DivergenceAssessment(
            ProbeStatus.CERTIFIED_DIVERGES,
            last_partial=partial,
            witness_onset=start_index + onset,
        )

    n = t.size
    partials = np.cumsum(t)
    last = float(partials[-1]) if n else 0.0
    if n < policy.min_terms:
        return DivergenceAssessment(ProbeStatus.UNDECIDED, last_partial=last)
    if float(t.max()) <= policy.tol_abs:
        return DivergenceAssessment(ProbeStatus.CONVERGES_SUGGESTED, last_partial=last)

    # divergence witness: trailing-window minimum that has stopped decreasing
    w = max(policy.min_terms // 2, n // 8)
    if n >= 2 * w:
        m_prev = float(t[-2 * w:-w].min())
        m_last = float(t[-w:].min())
        if m_last > 0 and m_last >= (1.0 - policy.trend_tol) * m_prev:
            return DivergenceAssessment(
                ProbeStatus.CERTIFIED_DIVERGES,
                last_partial=last,
                witness_floor=min(m_last, m_prev),
                witness_onset=start_index + n - 2 * w,
            )

    # geometric-ratio convergence certificate on the trailing window
    nz = t[t > 0]
    win = nz[-(policy.ratio_window + 1):]
    if win.size == policy.ratio_window + 1:
        ratios = win[1:] / win[:-1]
        rho = float(ratios.max())
        if rho <= policy.ratio_max:
            bound = float(win[-1]) * rho / (1.0 - rho)
            return DivergenceAssessment(
                ProbeStatus.CONVERGES_SUGGESTED, last_partial=last, tail_bound=bound
            )

    # power-law fit of the terms over the trailing half
    s = np.arange(start_index, start_index + n, dtype=float)
    half = n // 2
    mask = t[half:] > 0
    p_hat = None
    if mask.sum() >= 4:
        ls = np.log(s[half:][mask])
        lt = np.log(t[half:][mask])
        ls_c = ls - ls.mean()
        denom = float(np.dot(ls_c, ls_c))
        if denom > 0:
            p_hat = float(-np.dot(ls_c, lt - lt.mean()) / denom)
    if p_hat is not None and p_hat >= policy.p_converge:
        return DivergenceAssessment(
            ProbeStatus.CONVERGES_SUGGESTED, last_partial=last, term_exponent_estimate=p_hat
        )

    # growth of the partial sums over the trailing half
    s_half = float(partials[half - 1]) if half >= 1 else 0.0
    growth = None
    if last > 0 and s_half > 0:
        growth = math.log(last / s_half) / math.log(2) if last > s_half else 0.0
        rel_growth = (last - s_half) / last
        if rel_growth >= policy.growth_frac:
            return DivergenceAssessment(
                ProbeStatus.DIVERGES_SUGGESTED,
                last_partial=last,
                growth_exponent_estimate=growth,
                term_exponent_estimate=p_hat,
            )
        if rel_growth <= policy.converged_frac:
            return DivergenceAssessment(
                ProbeStatus.CONVERGES_SUGGESTED, last_partial=last,
                term_exponent_estimate=p_hat,
            )
    if p_hat is not None and p_hat <= policy.p_diverge:
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


@dataclass(frozen=True)
class EvidenceRow:
    zeta: int
    term: float
    partial_sum: float
    running_value: float


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    status: VerdictStatus
    conclusion: str
    evidence: tuple = field(default_factory=tuple)  # EvidenceRow per sampled index
    probe: Optional[DivergenceAssessment] = None
    flags: tuple = field(default_factory=tuple)

    @property
    def holds(self) -> bool:
        return self.status in (VerdictStatus.CERTIFIED_HOLDS, VerdictStatus.NUMERICALLY_SUGGESTED)


_VERDICT_OF_PROBE = {
    ProbeStatus.CERTIFIED_DIVERGES: VerdictStatus.CERTIFIED_HOLDS,
    ProbeStatus.DIVERGES_SUGGESTED: VerdictStatus.NUMERICALLY_SUGGESTED,
    ProbeStatus.CONVERGES_SUGGESTED: VerdictStatus.NUMERICALLY_FAILS,
    ProbeStatus.UNDECIDED: VerdictStatus.INCONCLUSIVE,
}


def _valid_indices(eq: HalfLinearEquation, start: int, horizon: int) -> np.ndarray:
    """The index column [start, start + horizon), once the hypotheses hold on
    [zeta0, start + max(horizon, 8)]; so r > 0 and r, q are finite on it."""
    report = validate(eq, start + max(horizon, 8))
    # an identically-zero q (violation without an offending index) is allowed
    # through: the evaluators then report all-zero terms as a failing verdict
    hard = [v for v in report.violations if v.index is not None]
    if hard:
        first = hard[0]
        raise StageError(f"hypothesis {first.hypothesis} violated: {first.detail}")
    return np.arange(start, start + horizon)


def _evidence(start: int, term: np.ndarray, running: Optional[np.ndarray] = None) -> tuple:
    """An EvidenceRow per index from `start`; partial sums of `term` run left to right
    (np.cumsum), and the running value is the partial sum unless given."""
    partial = np.cumsum(term)
    running = partial if running is None else running
    z = range(start, start + len(term))
    return tuple(map(EvidenceRow, z, term.tolist(), partial.tolist(), running.tolist()))


def _series_verdict(criterion, conclusion, start, term, policy, flags=()) -> CriterionVerdict:
    """The one path from a term column to a verdict: evidence rows and the probe."""
    probe = divergence_probe(term, policy, start_index=start)
    return CriterionVerdict(criterion, _VERDICT_OF_PROBE[probe.status], conclusion,
                            _evidence(start, term), probe, tuple(flags))


def _exclusive_sum(x: np.ndarray) -> np.ndarray:
    """out[i] = x[0] + ... + x[i-1], added left to right; out[0] = 0."""
    out = np.zeros_like(x)
    np.cumsum(x[:-1], out=out[1:])
    return out


def _theta_column(eq: HalfLinearEquation, start: int, n: int, cfg: TailConfig) -> np.ndarray:
    return np.array([theta(eq, s, cfg).value for s in range(start, start + n)])


def _root_series(eq: HalfLinearEquation, z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """((1/r(z)) * sum_{s=zeta0}^{z-1} weights(s))^(1/alpha); an overflow is +inf."""
    with np.errstate(over="ignore"):
        return (_exclusive_sum(weights) / eq.r.eval_array(z)) ** (eq.alpha.den / eq.alpha.num)


def crit_thm21(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of ((1/r(z)) * sum_{s=zeta0}^{z-1} q(s))^(1/alpha)."""
    z = _valid_indices(eq, eq.zeta0, horizon)
    return _series_verdict(THM21, "every solution oscillates or tends to zero", eq.zeta0,
                           _root_series(eq, z, eq.q.eval_array(z)), policy)


def crit_thm22a(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of ((1/r(z)) * sum_{s=zeta0}^{z-1} q(s) theta^alpha(s - sigma))^(1/alpha)."""
    z = _valid_indices(eq, eq.zeta0, horizon)
    th = np.zeros(horizon)  # a zero weight leaves the inner sum as skipping the term would
    flags: list[str] = []
    for i, s in enumerate((z - eq.sigma).tolist()):
        try:
            th[i] = theta_extended(eq, s, cfg).value
        except DomainError:
            flags.append(f"theta({s}) not evaluable; term at s={s + eq.sigma} skipped")
    weights = eq.q.eval_array(z) * th ** eq.alpha.value
    return _series_verdict(THM22A, "every solution oscillates", eq.zeta0,
                           _root_series(eq, z, weights), policy, flags)


def crit_thm22b(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of q(s) * theta^(alpha+1)(s + 1)."""
    z = _valid_indices(eq, eq.zeta0, horizon)
    th = _theta_column(eq, eq.zeta0 + 1, horizon, cfg)
    with np.errstate(over="ignore"):
        term = eq.q.eval_array(z) * th ** (eq.alpha.value + 1.0)
    return _series_verdict(THM22B, "every solution oscillates", eq.zeta0, term, policy)


def crit_lem21(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of q(z) itself."""
    q = eq.q.eval_array(_valid_indices(eq, eq.zeta0, horizon))
    return _series_verdict(LEM21, "every eventually positive solution is eventually decreasing",
                           eq.zeta0, q, policy)


def crit_thm23(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(), zeta1: Optional[int] = None, margin: float = 1e-6,
) -> CriterionVerdict:
    """limsup of v(z) = theta^alpha(z) * sum_{s=zeta1}^{z-1} q(s), compared against 1.

    The limsup is estimated as the supremum of v over the trailing half of the
    horizon; `zeta1` defaults to zeta0 and may be overridden since finite
    start shifts can move individual v values (though not true divergence).
    """
    z1 = eq.zeta0 if zeta1 is None else zeta1
    if z1 < eq.zeta0:
        raise ValueError(f"zeta1 must be >= zeta0 = {eq.zeta0}")
    q = eq.q.eval_array(_valid_indices(eq, z1, horizon))
    q_prev = np.concatenate(([0.0], q))[:horizon]  # evidence term: q(z - 1), 0 at zeta1
    with np.errstate(over="ignore", invalid="ignore"):
        v = _theta_column(eq, z1, horizon, cfg) ** eq.alpha.value * _exclusive_sum(q)
    v[~np.isfinite(v)] = np.inf

    tail = v[horizon // 2:]
    estimate = float(tail.max()) if tail.size else 0.0
    if estimate > 1.0 + margin:
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
                            _evidence(z1, q_prev, v), probe)


_EVALUATORS = {
    THM21: crit_thm21,
    THM22A: crit_thm22a,
    THM22B: crit_thm22b,
    LEM21: crit_lem21,
    THM23: crit_thm23,
}


def evaluate_criterion(
    criterion: str, eq: HalfLinearEquation, horizon: int,
    policy: ProbePolicy = ProbePolicy(), cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    try:
        fn = _EVALUATORS[criterion]
    except KeyError:
        raise ValueError(f"unknown criterion {criterion!r}; known: {', '.join(CRITERION_IDS)}")
    return fn(eq, horizon, policy, cfg)
