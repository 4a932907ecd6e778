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


def _status_from_probe(probe: DivergenceAssessment) -> VerdictStatus:
    return {
        ProbeStatus.CERTIFIED_DIVERGES: VerdictStatus.CERTIFIED_HOLDS,
        ProbeStatus.DIVERGES_SUGGESTED: VerdictStatus.NUMERICALLY_SUGGESTED,
        ProbeStatus.CONVERGES_SUGGESTED: VerdictStatus.NUMERICALLY_FAILS,
        ProbeStatus.UNDECIDED: VerdictStatus.INCONCLUSIVE,
    }[probe.status]


def _check_valid(eq: HalfLinearEquation, horizon: int):
    report = validate(eq, eq.zeta0 + max(horizon, 8))
    # an identically-zero q (violation without an offending index) is allowed
    # through: the evaluators then report all-zero terms as a failing verdict
    hard = [v for v in report.violations if v.index is not None]
    if hard:
        first = hard[0]
        raise StageError(f"hypothesis {first.hypothesis} violated: {first.detail}")


def _series_verdict(criterion, conclusion, rows, flags, start_index, policy) -> CriterionVerdict:
    terms = [row.term for row in rows]
    probe = divergence_probe(terms, policy, start_index=start_index)
    return CriterionVerdict(
        criterion=criterion,
        status=_status_from_probe(probe),
        conclusion=conclusion,
        evidence=tuple(rows),
        probe=probe,
        flags=tuple(flags),
    )


def crit_thm21(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of ((1/r(z)) * sum_{s=zeta0}^{z-1} q(s))^(1/alpha)."""
    _check_valid(eq, horizon)
    inv_alpha = eq.alpha.den / eq.alpha.num
    rows = []
    inner = 0.0
    for z in range(eq.zeta0, eq.zeta0 + horizon):
        rv = eq.r(z)
        if rv <= 0:
            raise DomainError(f"r({z}) = {rv} is not positive")
        base = inner / rv
        try:
            term = base ** inv_alpha
        except OverflowError:
            term = math.inf
        partial = (rows[-1].partial_sum if rows else 0.0) + term
        rows.append(EvidenceRow(z, term, partial, partial))
        inner = inner + eq.q(z)  # S(z+1) = S(z) + q(z), exactly
    return _series_verdict(
        THM21, "every solution oscillates or tends to zero", rows, (), eq.zeta0, policy
    )


def crit_thm22a(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of ((1/r(z)) * sum_{s=zeta0}^{z-1} q(s) theta^alpha(s - sigma))^(1/alpha)."""
    _check_valid(eq, horizon)
    a = eq.alpha.value
    inv_alpha = eq.alpha.den / eq.alpha.num
    rows = []
    flags: list[str] = []
    inner = 0.0
    for z in range(eq.zeta0, eq.zeta0 + horizon):
        rv = eq.r(z)
        if rv <= 0:
            raise DomainError(f"r({z}) = {rv} is not positive")
        try:
            term = (inner / rv) ** inv_alpha
        except OverflowError:
            term = math.inf
        partial = (rows[-1].partial_sum if rows else 0.0) + term
        rows.append(EvidenceRow(z, term, partial, partial))
        try:
            th = theta_extended(eq, z - eq.sigma, cfg).value
            inner = inner + eq.q(z) * th ** a
        except DomainError:
            flags.append(f"theta({z - eq.sigma}) not evaluable; term at s={z} skipped")
    return _series_verdict(THM22A, "every solution oscillates", rows, flags, eq.zeta0, policy)


def crit_thm22b(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of q(s) * theta^(alpha+1)(s + 1)."""
    _check_valid(eq, horizon)
    a1 = eq.alpha.value + 1.0
    rows = []
    partial = 0.0
    for s in range(eq.zeta0, eq.zeta0 + horizon):
        th = theta(eq, s + 1, cfg).value
        term = eq.q(s) * th ** a1
        partial = partial + term
        rows.append(EvidenceRow(s, term, partial, partial))
    return _series_verdict(THM22B, "every solution oscillates", rows, (), eq.zeta0, policy)


def crit_lem21(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(),
) -> CriterionVerdict:
    """Series of q(z) itself."""
    _check_valid(eq, horizon)
    rows = []
    partial = 0.0
    for z in range(eq.zeta0, eq.zeta0 + horizon):
        term = eq.q(z)
        partial = partial + term
        rows.append(EvidenceRow(z, term, partial, partial))
    return _series_verdict(
        LEM21, "every eventually positive solution is eventually decreasing",
        rows, (), eq.zeta0, policy,
    )


def crit_thm23(
    eq: HalfLinearEquation, horizon: int, policy: ProbePolicy = ProbePolicy(),
    cfg: TailConfig = TailConfig(), zeta1: Optional[int] = None, margin: float = 1e-6,
) -> CriterionVerdict:
    """limsup of v(z) = theta^alpha(z) * sum_{s=zeta1}^{z-1} q(s), compared against 1.

    The limsup is estimated as the supremum of v over the trailing half of the
    horizon; `zeta1` defaults to zeta0 and may be overridden since finite
    start shifts can move individual v values (though not true divergence).
    """
    _check_valid(eq, horizon)
    z1 = eq.zeta0 if zeta1 is None else zeta1
    if z1 < eq.zeta0:
        raise ValueError(f"zeta1 must be >= zeta0 = {eq.zeta0}")
    a = eq.alpha.value
    rows = []
    inner = 0.0
    for z in range(z1, z1 + horizon):
        if z > z1:
            q_prev = eq.q(z - 1)
            inner = inner + q_prev
        else:
            q_prev = 0.0
        th = theta(eq, z, cfg).value
        v = (th ** a) * inner
        if not math.isfinite(v):
            v = math.inf
        rows.append(EvidenceRow(z, q_prev, inner, v))

    values = [row.running_value for row in rows]
    tail = values[len(values) // 2:]
    estimate = max(tail) if tail else 0.0
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
    return CriterionVerdict(
        criterion=THM23,
        status=status,
        conclusion="every solution oscillates",
        evidence=tuple(rows),
        probe=probe,
        flags=(),
    )


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
