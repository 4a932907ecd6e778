"""A family with a known sharp oscillation constant, as ground truth for the criteria.

r = z(z+1), alpha = 1, q = lambda: theta = 1/z, so the comparison equation has
rt = 1 and qt(z) = lambda theta(z+1) theta(d(z)), about lambda / z^2.  Its Euler
equation D^2 u + lambda u / z^2 = 0 has the solutions z^a with a(a - 1) + lambda = 0,
real iff lambda <= 1/4: the discrete Kneser constant (Hooker and Patula 1981).  A
bounded delay changes only lower-order terms.  So below 1/4 some solution does
not oscillate, and no criterion concluding "every solution oscillates" may hold.
"""
import importlib.util
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdelay import DelayForm, HalfLinearEquation, RationalExponent, Sequence, to_canonical
from oscdelay.criteria import (CANONICAL_SUM_Q, LEM21, THM21, THM22A, THM22B, THM23, THM23_MARGIN,
                               evaluate_criterion)
from oscdelay.transform import crit_canonical_sumq

HORIZON = 200


def euler_family(lam: float, sigma: int, form: DelayForm) -> HalfLinearEquation:
    # zeta0 = sigma + 1 keeps every delayed index at 1 or above, where r > 0
    return HalfLinearEquation(r=Sequence.from_expression("z*(z+1)"),
                              q=Sequence.from_expression(repr(lam)),
                              alpha=RationalExponent(1, 1), sigma=sigma, delay_form=form,
                              zeta0=sigma + 1)


def oscillation_verdicts(eq: HalfLinearEquation) -> list:
    """Every verdict whose conclusion is that every solution oscillates."""
    verdicts = [evaluate_criterion(c, eq, HORIZON) for c in (THM22A, THM22B, THM23)]
    return verdicts + [crit_canonical_sumq(to_canonical(eq, HORIZON), HORIZON)]


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 0.2, exclude_min=True),
       sigma=st.integers(1, 3),
       form=st.sampled_from(DelayForm))
def test_no_oscillation_claim_below_the_constant(lam, sigma, form):
    for verdict in oscillation_verdicts(euler_family(lam, sigma, form)):
        assert not verdict.holds, (verdict.criterion, verdict.status)


@pytest.mark.parametrize("form", DelayForm)
@pytest.mark.parametrize("sigma", [1, 2, 3])
def test_thm23_claims_oscillation_well_above_it(sigma, form):
    # Thm23's v(z) tends to lambda on this family, so it fires only past lambda = 1
    by_id = {v.criterion: v for v in oscillation_verdicts(euler_family(2.0, sigma, form))}
    assert by_id[THM23].holds


def load_sharpness_tool():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "sharpness.py"
    spec = importlib.util.spec_from_file_location("sharpness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sharpness_table():
    tool = load_sharpness_tool()
    # Thm23's v(z) = lambda (z - zeta0) / z peaks at the horizon's last index, zeta0 + 199
    zeta0 = tool.SIGMA + 1
    thm23 = (zeta0 + 199) / 199 * (1 + THM23_MARGIN)
    for form in DelayForm:
        assert tool.threshold(THM23, form) == pytest.approx(thm23, rel=1e-6)
        # their series converge for every lambda on this family
        for criterion in (THM22A, THM22B, CANONICAL_SUM_Q):
            assert tool.threshold(criterion, form) == math.inf
        # they conclude less than oscillation, and hold for every lambda > 0
        for criterion in (THM21, LEM21):
            assert tool.threshold(criterion, form) == 0.0
    row = next(line for line in tool.table().splitlines() if line.startswith(f"| {THM23} |"))
    assert row.count(f"| {thm23:.5g} (4.04 × 1/4) ") == 2
