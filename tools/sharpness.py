"""How sharp each criterion is on a family whose oscillation constant is known.

    PYTHONPATH=src python tools/sharpness.py

The family is r = z(z+1), alpha = 1, q = lambda (constant), sigma = 1, in both
delay forms, from zeta0 = sigma + 1 at horizon 200.  There theta = 1/z, and the
comparison equation D^2 u + lambda u / z^2 = 0 is non-oscillatory exactly when
lambda <= 1/4: the discrete Euler/Kneser constant (Hooker and Patula 1981;
Rehak 2001).  For each criterion this bisects lambda, on a log scale, for the
least value at which the criterion holds (certified or numerically suggested),
and prints a Markdown table of those thresholds next to 1/4.  A threshold of 0
means the criterion holds at every lambda tried; inf means it holds at none.
"""
from __future__ import annotations

import math
import sys

from oscdelay import DelayForm, HalfLinearEquation, RationalExponent, Sequence, to_canonical
from oscdelay.criteria import CANONICAL_SUM_Q, CRITERION_IDS, CriterionVerdict, evaluate_criterion
from oscdelay.transform import crit_canonical_sumq

SHARP = 0.25
SIGMA = 1
HORIZON = 200
LAMBDA_MIN, LAMBDA_MAX = 1e-6, 100.0
REL_TOL = 1e-7  # bisection stops once the bracket is this narrow, relative to its ends
CRITERIA = (*CRITERION_IDS, CANONICAL_SUM_Q)
FORMS = (DelayForm.MINUS_SIGMA_PLUS_ONE, DelayForm.MINUS_SIGMA)


def family(lam: float, form: DelayForm) -> HalfLinearEquation:
    return HalfLinearEquation(r=Sequence.from_expression("z*(z+1)"),
                              q=Sequence.from_expression(repr(lam)),
                              alpha=RationalExponent(1, 1), sigma=SIGMA, delay_form=form,
                              zeta0=SIGMA + 1)


def verdict(criterion: str, lam: float, form: DelayForm) -> CriterionVerdict:
    eq = family(lam, form)
    if criterion == CANONICAL_SUM_Q:
        return crit_canonical_sumq(to_canonical(eq, HORIZON), HORIZON)
    return evaluate_criterion(criterion, eq, HORIZON)


def holds(criterion: str, lam: float, form: DelayForm) -> bool:
    return verdict(criterion, lam, form).holds


def threshold(criterion: str, form: DelayForm) -> float:
    """The least lambda in [LAMBDA_MIN, LAMBDA_MAX] at which the criterion holds, to
    REL_TOL; 0.0 when it holds at LAMBDA_MIN, inf when it fails at LAMBDA_MAX."""
    if not holds(criterion, LAMBDA_MAX, form):
        return math.inf
    if holds(criterion, LAMBDA_MIN, form):
        return 0.0
    lo, hi = LAMBDA_MIN, LAMBDA_MAX  # fails at lo, holds at hi
    while hi - lo > REL_TOL * hi:
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if holds(criterion, mid, form) else (mid, hi)
    return hi


def cell(value: float) -> str:
    if value == 0.0:
        return f"every λ ≥ {LAMBDA_MIN:g}"
    if math.isinf(value):
        return f"none ≤ {LAMBDA_MAX:g}"
    return f"{value:.5g} ({value / SHARP:.3g} × 1/4)"


def table() -> str:
    lines = [
        f"| criterion | conclusion | `{FORMS[0].value}` | `{FORMS[1].value}` |",
        "|---|---|---|---|",
        "| sharp constant | some solution is non-oscillatory iff λ ≤ 1/4 | 0.25 | 0.25 |",
    ]
    for c in CRITERIA:
        cells = [cell(threshold(c, form)) for form in FORMS]
        conclusion = verdict(c, LAMBDA_MAX, FORMS[0]).conclusion
        lines.append(f"| {c} | {conclusion} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(table())
