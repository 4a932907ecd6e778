"""Tests for the canonical comparison transform."""
import pytest

from oscdelay import (
    CanonicalEquation,
    DelayForm,
    HalfLinearEquation,
    RationalExponent,
    Sequence,
    canonical_residual,
    crit_canonical_sumq,
    example_equation,
    to_canonical,
)
from oscdelay.criteria import VerdictStatus
from oscdelay.errors import StageError

ALTERNATING = Sequence.closed_form("(-1)^z", lambda z: (-1.0) ** z)


def plus_one_eq(q_text, r_text="z*(z+1)", alpha=(1, 1), sigma=1, zeta0=1, theta_cf=None):
    return HalfLinearEquation(
        r=Sequence.from_expression(r_text),
        q=Sequence.from_expression(q_text),
        alpha=RationalExponent(*alpha),
        sigma=sigma,
        delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
        zeta0=zeta0,
        theta_closed_form=theta_cf,
    )


class TestToCanonical:
    def test_example3_r_tilde_is_one(self):
        ceq = to_canonical(example_equation(3))
        assert max(abs(ceq.r_tilde(z) - 1.0) for z in range(1, 101)) <= 1e-12

    def test_example3_q_tilde_is_four_fifths(self):
        ceq = to_canonical(example_equation(3))
        values = [ceq.q_tilde(z) for z in range(2, 101)]
        assert max(abs(v - values[0]) for v in values) <= 1e-9
        assert abs(values[0] - 0.8) <= 1e-9

    def test_alpha_one_telescoping_case(self):
        # r = z(z+1) with alpha = 1 gives theta = 1/z, r_tilde = 1 and
        # q_tilde(z) = q(z) / (z (z+1))
        eq = plus_one_eq(
            "z^2+1", theta_cf=Sequence.closed_form("1/z", lambda z: 1.0 / z)
        )
        ceq = to_canonical(eq)
        for z in range(2, 60):
            assert ceq.r_tilde(z) == pytest.approx(1.0, abs=1e-9)
            want = (z * z + 1.0) / (z * (z + 1.0))
            assert ceq.q_tilde(z) == pytest.approx(want, rel=1e-9)

    def test_numeric_theta_path(self):
        eq = HalfLinearEquation(
            r=Sequence.from_expression("(z*(z+1))^(5/3)"),
            q=Sequence.from_expression("4*(z^2-1)*z^(2/3)/3"),
            alpha=RationalExponent(5, 3),
            sigma=2,
            delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
            zeta0=1,
        )
        ceq = to_canonical(eq)
        assert max(abs(ceq.r_tilde(z) - 1.0) for z in range(1, 101)) <= 1e-8

    def test_q_scaling_linearity(self):
        base = to_canonical(example_equation(3))
        scaled_eq = HalfLinearEquation(
            r=Sequence.from_expression("(z*(z+1))^(5/3)"),
            q=Sequence.from_expression("3*(4*(z^2-1)*z^(2/3)/3)"),
            alpha=RationalExponent(5, 3),
            sigma=2,
            delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
            zeta0=1,
            theta_closed_form=Sequence.closed_form("1/z", lambda z: 1.0 / z),
        )
        scaled = to_canonical(scaled_eq)
        for z in range(2, 60):
            assert scaled.q_tilde(z) == pytest.approx(3.0 * base.q_tilde(z), rel=1e-12)

    def test_wrong_form_rejected(self):
        with pytest.raises(StageError):
            to_canonical(example_equation(1))

    def test_alpha_below_one_rejected(self):
        eq = plus_one_eq("1", r_text="2^z", alpha=(1, 3))
        with pytest.raises(StageError):
            to_canonical(eq)

    def test_uncertified_theta_rejected(self):
        # r^(-1/alpha) = 1/z diverges: no certified finite tail sum exists
        from oscdelay.errors import NonConvergentError

        eq = plus_one_eq("1", r_text="z")
        with pytest.raises((StageError, NonConvergentError)):
            to_canonical(eq)


class TestCanonicalResidual:
    def test_alternating_solves_published_comparison(self):
        literal = CanonicalEquation(
            r_tilde=Sequence.closed_form("1", lambda z: 1.0),
            q_tilde=Sequence.closed_form("4", lambda z: 4.0),
            sigma=2,
            zeta0=1,
        )
        assert canonical_residual(literal, ALTERNATING, 3, 100) <= 1e-12

    def test_constant_with_zero_q(self):
        ceq = CanonicalEquation(
            r_tilde=Sequence.closed_form("1", lambda z: 1.0),
            q_tilde=Sequence.closed_form("0", lambda z: 0.0),
            sigma=2,
            zeta0=1,
        )
        const = Sequence.closed_form("c", lambda z: 2.5)
        assert canonical_residual(ceq, const, 3, 50) == 0.0

    def test_four_fifths_mismatch_value(self):
        # with the computed constant 4/5 the alternating candidate misses by
        # exactly 16/5 at every index
        ceq = CanonicalEquation(
            r_tilde=Sequence.closed_form("1", lambda z: 1.0),
            q_tilde=Sequence.closed_form("4/5", lambda z: 0.8),
            sigma=2,
            zeta0=1,
        )
        from oscdelay.transform import canonical_residual_pointwise

        rows = canonical_residual_pointwise(ceq, ALTERNATING, 3, 40)
        for _, v in rows:
            assert abs(abs(v) - 3.2) <= 1e-12


class TestCanonicalSumQ:
    def test_constant_four_certified(self):
        ceq = CanonicalEquation(
            r_tilde=Sequence.closed_form("1", lambda z: 1.0),
            q_tilde=Sequence.closed_form("4", lambda z: 4.0),
            sigma=2,
            zeta0=1,
        )
        v = crit_canonical_sumq(ceq, 200)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS

    def test_four_fifths_also_certified(self):
        v = crit_canonical_sumq(to_canonical(example_equation(3)), 200)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS

    def test_summable_q_tilde_fails(self):
        ceq = CanonicalEquation(
            r_tilde=Sequence.closed_form("1", lambda z: 1.0),
            q_tilde=Sequence.closed_form("2^-z", lambda z: 2.0 ** -z),
            sigma=2,
            zeta0=1,
        )
        v = crit_canonical_sumq(ceq, 200)
        assert v.status is VerdictStatus.NUMERICALLY_FAILS

    def test_negative_q_tilde_is_stage_error(self):
        # the sum test needs non-negative terms; the first negative one is named
        ceq = CanonicalEquation(
            r_tilde=Sequence.closed_form("1", lambda z: 1.0),
            q_tilde=Sequence.closed_form("-1", lambda z: -1.0),
            sigma=1,
            zeta0=3,
        )
        with pytest.raises(StageError, match=r"q_tilde\(3\) = -1.0 < 0"):
            crit_canonical_sumq(ceq, 20)
