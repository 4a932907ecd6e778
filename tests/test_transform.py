"""Tests for the canonical comparison transform."""
import pickle

import pytest

from oscdelay import (
    DelayForm,
    HalfLinearEquation,
    RationalExponent,
    Sequence,
    canonical_residual,
    crit_canonical_sumq,
    example_equation,
    theta,
    theta_extended,
    to_canonical,
    validate,
)
from oscdelay.criteria import VerdictStatus
from oscdelay.errors import DomainError, StageError
from oscdelay.transform import canonical_residual_pointwise

ALTERNATING = Sequence.from_table(-5, [(-1.0) ** z for z in range(-5, 200)])


def comparison_eq(r_tilde, q_tilde, sigma, zeta0):
    """The comparison equation: the model equation with alpha = 1 in y(z) = x(z-1)."""
    return HalfLinearEquation(r=r_tilde, q=q_tilde, alpha=RationalExponent(1, 1), sigma=sigma,
                              delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE, zeta0=zeta0)


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
        ceq = to_canonical(example_equation(3), 100)
        assert max(abs(ceq.r(z) - 1.0) for z in range(1, 101)) <= 1e-12

    def test_example3_q_tilde_is_four_fifths(self):
        ceq = to_canonical(example_equation(3), 100)
        values = [ceq.q(z) for z in range(2, 101)]
        assert max(abs(v - values[0]) for v in values) <= 1e-9
        assert abs(values[0] - 0.8) <= 1e-9

    def test_alpha_one_telescoping_case(self):
        # r = z(z+1) with alpha = 1 gives theta = 1/z, r_tilde = 1 and
        # q_tilde(z) = q(z) / (z (z+1))
        eq = plus_one_eq("z^2+1", theta_cf=Sequence.from_expression("1/z"))
        ceq = to_canonical(eq, 60)
        for z in range(2, 60):
            assert ceq.r(z) == pytest.approx(1.0, abs=1e-9)
            want = (z * z + 1.0) / (z * (z + 1.0))
            assert ceq.q(z) == pytest.approx(want, rel=1e-9)

    def test_numeric_theta_path(self):
        eq = HalfLinearEquation(
            r=Sequence.from_expression("(z*(z+1))^(5/3)"),
            q=Sequence.from_expression("4*(z^2-1)*z^(2/3)/3"),
            alpha=RationalExponent(5, 3),
            sigma=2,
            delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
            zeta0=1,
        )
        ceq = to_canonical(eq, 100)
        assert max(abs(ceq.r(z) - 1.0) for z in range(1, 101)) <= 1e-8

    def test_q_scaling_linearity(self):
        base = to_canonical(example_equation(3), 60)
        scaled_eq = HalfLinearEquation(
            r=Sequence.from_expression("(z*(z+1))^(5/3)"),
            q=Sequence.from_expression("3*(4*(z^2-1)*z^(2/3)/3)"),
            alpha=RationalExponent(5, 3),
            sigma=2,
            delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
            zeta0=1,
            theta_closed_form=Sequence.from_expression("1/z"),
        )
        scaled = to_canonical(scaled_eq, 60)
        for z in range(2, 60):
            assert scaled.q(z) == pytest.approx(3.0 * base.q(z), rel=1e-12)

    def test_tables_hold_the_scalar_formulas(self):
        # rt and qt are tabulated on [zeta0, zeta0 + horizon], bit for bit the per-index formulas
        eq = example_equation(3)
        ceq = to_canonical(eq, 60)
        a, inv_alpha = eq.alpha.value, eq.alpha.den / eq.alpha.num
        th = lambda z: theta(eq, z).value  # noqa: E731
        for z in range(1, 62):
            assert ceq.r(z) == th(z) * th(z + 1) * eq.r(z) ** inv_alpha
            qv = eq.q(z)  # q(1) = 0, and theta_extended(0) would need r(0) > 0
            want = qv and inv_alpha * th(z + 1) * th(z) ** (a - 1.0) * theta_extended(eq, z - 1).value * qv
            assert ceq.q(z) == want
        with pytest.raises(DomainError, match="outside table"):
            ceq.r(62)

    def test_pickle_round_trip(self):
        ceq = to_canonical(example_equation(3), 100)
        copy = pickle.loads(pickle.dumps(ceq))
        assert copy == ceq
        assert [copy.q(z) for z in range(1, 102)] == [ceq.q(z) for z in range(1, 102)]

    def test_wrong_form_rejected(self):
        with pytest.raises(StageError):
            to_canonical(example_equation(1), 100)

    def test_alpha_below_one_rejected(self):
        eq = plus_one_eq("1", r_text="2^z", alpha=(1, 3))
        with pytest.raises(StageError):
            to_canonical(eq, 100)

    def test_uncertified_theta_rejected(self):
        # r^(-1/alpha) = 1/z diverges: no certified finite tail sum exists
        from oscdelay.errors import NonConvergentError

        eq = plus_one_eq("1", r_text="z")
        with pytest.raises((StageError, NonConvergentError)):
            to_canonical(eq, 100)


class TestCanonicalResidual:
    def test_alternating_solves_published_comparison(self):
        literal = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_expression("4"),
            sigma=2,
            zeta0=1,
        )
        assert canonical_residual(literal, ALTERNATING, 3, 100) <= 1e-12

    def test_constant_with_zero_q(self):
        ceq = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_expression("0"),
            sigma=2,
            zeta0=1,
        )
        const = Sequence.from_expression("2.5")
        assert canonical_residual(ceq, const, 3, 50) == 0.0

    def test_four_fifths_mismatch_value(self):
        # with the computed constant 4/5 the alternating candidate misses by
        # exactly 16/5 at every index
        ceq = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_expression("4/5"),
            sigma=2,
            zeta0=1,
        )
        from oscdelay.transform import canonical_residual_pointwise

        rows = canonical_residual_pointwise(ceq, ALTERNATING, 3, 40)
        for _, v in rows:
            assert abs(abs(v) - 3.2) <= 1e-12


def reference_residual(ceq, candidate, frm, to):
    """rt(z+1)(x(z+1)-x(z)) - rt(z)(x(z)-x(z-1)) + qt(z) x(z-sigma), one index at a time in x."""
    out = []
    for z in range(frm, to + 1):
        xm, x0, xp = candidate(z - 1), candidate(z), candidate(z + 1)
        lhs = ceq.r(z + 1) * (xp - x0) - ceq.r(z) * (x0 - xm) + ceq.q(z) * candidate(z - ceq.sigma)
        out.append((z, lhs))
    return out


def literal(q):
    return comparison_eq(Sequence.from_expression("1"), Sequence.from_expression(q), 2, 1)


class TestResidualOracle:
    """The comparison residual, evaluated as the model equation's in y(z) = x(z-1),
    equals the per-index x-form formula exactly."""

    @pytest.mark.parametrize("make_ceq, candidate, frm, to", [
        (lambda: literal("4"), ALTERNATING, 3, 100),
        (lambda: literal("4/5"), ALTERNATING, 3, 100),
        (lambda: to_canonical(example_equation(3), 100), ALTERNATING, 1, 60),
        (lambda: to_canonical(example_equation(3), 100), Sequence.from_expression("1/z^2"), 3, 60),
        (lambda: literal("4"), Sequence.from_expression("2.5"), 3, 50),
        (lambda: to_canonical(example_equation(3), 100), Sequence.from_table(-1, [0.5 ** k for k in range(63)]), 1, 60),
    ], ids=["literal-4", "literal-4/5", "example3-alternating", "example3-expression",
            "constant", "table"])
    def test_matches_reference(self, make_ceq, candidate, frm, to):
        ceq = make_ceq()
        want = reference_residual(ceq, candidate, frm, to)
        assert canonical_residual_pointwise(ceq, candidate, frm, to) == want

    # frm - sigma = -1 and to + 1 = 61: each table leaves one of them out
    @pytest.mark.parametrize("candidate", [
        Sequence.from_table(0, [1.0] * 62),
        Sequence.from_table(-1, [1.0] * 62),
        Sequence.from_expression("2^(z*20)"),  # not finite from z = 52
    ], ids=["table-misses-frm-sigma", "table-misses-to-plus-1", "overflowing-expression"])
    def test_failure_raises_as_reference(self, candidate):
        ceq = to_canonical(example_equation(3), 100)
        with pytest.raises(DomainError) as want:
            reference_residual(ceq, candidate, 1, 60)
        with pytest.raises(DomainError) as got:
            canonical_residual_pointwise(ceq, candidate, 1, 60)
        assert type(got.value) is type(want.value)

    def test_example3_comparison_satisfies_hypotheses(self):
        assert validate(to_canonical(example_equation(3), 100), 50).violations == ()


class TestCanonicalSumQ:
    def test_constant_four_certified(self):
        ceq = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_expression("4"),
            sigma=2,
            zeta0=1,
        )
        v = crit_canonical_sumq(ceq, 200)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS

    def test_four_fifths_also_certified(self):
        v = crit_canonical_sumq(to_canonical(example_equation(3), 200), 200)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS

    def test_summable_q_tilde_fails(self):
        ceq = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_expression("2^-z"),
            sigma=2,
            zeta0=1,
        )
        v = crit_canonical_sumq(ceq, 200)
        assert v.status is VerdictStatus.NUMERICALLY_FAILS

    def test_negative_q_tilde_is_stage_error(self):
        # the sum test needs non-negative terms; the first negative one is named
        ceq = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_expression("-1"),
            sigma=1,
            zeta0=3,
        )
        with pytest.raises(StageError, match=r"q_tilde\(3\) = -1.0 < 0"):
            crit_canonical_sumq(ceq, 20)
