"""Tests for the canonical comparison transform."""
import math
import pickle
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from oscdelay.solver import InitialData, StatusKind, iterate, residual, residual_pointwise
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
            assert ceq.r(z) == th(z) * eq.r(z) ** inv_alpha * th(z + 1)
            qv = eq.q(z)  # q(1) = 0, and theta_extended(0) would need r(0) > 0
            want = qv and inv_alpha * th(z + 1) * qv * th(z) ** (a - 1.0) * theta_extended(eq, z - 1).value
            assert ceq.q(z) == want
        with pytest.raises(DomainError, match="outside table"):
            ceq.r(62)

    def test_small_theta_product_does_not_underflow(self):
        # r = q = 10^z: theta(z) = 10^(1-z)/9, so rt = qt = 10^(1-z)/81, a normal float on
        # [1, 250], while theta(z) * theta(z+1) alone is 0.0 from z = 162 on
        eq = plus_one_eq("10^z", r_text="10^z")
        ceq = to_canonical(eq, 300)
        for z in range(1, 251):
            want = 10.0 ** (1 - z) / 81
            assert ceq.r(z) == pytest.approx(want, rel=1e-12)
            assert ceq.q(z) == pytest.approx(want, rel=1e-12)
        assert validate(ceq, 250).violations == ()

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

    @pytest.mark.parametrize("alpha, message", [
        ((1, 3), "the transform requires alpha >= 1, got 1/3"),
    ], ids=["alpha-1/3"])
    def test_delay_form_refusal_names_alpha(self, alpha, message):
        eq = HalfLinearEquation(r=Sequence.from_expression("(z*(z+1))^(5/3)"),
                                q=Sequence.from_expression("1"), alpha=RationalExponent(*alpha),
                                sigma=1, delay_form=DelayForm.MINUS_SIGMA, zeta0=2)
        with pytest.raises(StageError, match=f"^{re.escape(message)}$"):
            to_canonical(eq, 100)

    def test_delay_form_is_plus_one_with_sigma_plus_one(self):
        # (*) with sigma reads x(z - sigma), as (**) with sigma + 1 does: one lag, one
        # comparison equation, at every alpha >= 1
        def eq(sigma, form):
            return HalfLinearEquation(r=Sequence.from_expression("(z*(z+1))^(5/3)"),
                                      q=Sequence.from_expression("1"), alpha=RationalExponent(5, 3),
                                      sigma=sigma, delay_form=form, zeta0=2)
        star = to_canonical(eq(1, DelayForm.MINUS_SIGMA), 100)
        plus_one = to_canonical(eq(2, DelayForm.MINUS_SIGMA_PLUS_ONE), 100)
        zs = range(2, 103)
        assert [star.r(z) for z in zs] == [plus_one.r(z) for z in zs]
        assert [star.q(z) for z in zs] == [plus_one.q(z) for z in zs]
        assert star.lag == plus_one.lag == 1 and (star.sigma, star.delay_form) == (1, DelayForm.MINUS_SIGMA)

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

    def test_nan_after_a_finite_value_makes_the_residual_nan(self):
        # q(3) * y(1)^3 = q(3) * x(0)^3 = 0 * inf at y(z) = x(z-1): the value at z = 3 is NaN,
        # after the finite one at z = 2, and the residual is NaN as solver.residual's is
        eq = HalfLinearEquation(r=Sequence.from_expression("z^3"), q=Sequence.from_expression("z - 3"),
                                alpha=RationalExponent(3, 1), sigma=3,
                                delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE, zeta0=2)
        cand = Sequence.from_table(-3, [1e300 if z == 0 else (-1.0) ** z for z in range(-3, 40)])
        rows = dict(canonical_residual_pointwise(eq, cand, 2, 30))
        assert math.isfinite(rows[2]) and math.isnan(rows[3])
        assert math.isnan(canonical_residual(eq, cand, 2, 30))
        assert math.isnan(canonical_residual(eq, cand, 3, 30))

    def test_delay_form_is_plus_one_with_sigma_plus_one(self):
        # to_canonical's equation is the model equation in u = x / theta itself, in either
        # form; the residual in y(z) = x(z-1) reads x(z - d - 1), d the lag, so (*) with
        # sigma gives the residual of (**) with sigma + 1
        def eq(sigma, form):
            return HalfLinearEquation(r=Sequence.from_expression("z*(z+1)"), q=Sequence.from_expression("0.3"),
                                      alpha=RationalExponent(1, 1), sigma=sigma, delay_form=form, zeta0=3)
        star, plus_one = eq(2, DelayForm.MINUS_SIGMA), eq(3, DelayForm.MINUS_SIGMA_PLUS_ONE)
        traj = iterate(star, InitialData.for_equation(star, [1.0, 0.5, -0.2, 0.7]), 155)
        lo = traj.start_index
        u = Sequence.from_table(lo, [x / theta_extended(star, lo + i).value for i, x in enumerate(traj.x)])
        ceq, ceq_plus_one = to_canonical(star, 155), to_canonical(plus_one, 155)
        assert residual(ceq, u, 3, 147) <= 1e-13 * max(abs(u(z)) for z in range(lo, 155))
        rows = canonical_residual_pointwise(ceq, u, 4, 150)
        assert rows == canonical_residual_pointwise(ceq_plus_one, u, 4, 150)
        assert rows == reference_residual(ceq_plus_one, u, 4, 150)
        assert canonical_residual(ceq, u, 4, 150) == max(abs(v) for _, v in rows)

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
        # the criteria's hypothesis check names the first negative term
        ceq = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_expression("-1"),
            sigma=1,
            zeta0=3,
        )
        with pytest.raises(StageError, match=r"^hypothesis H2 violated: q\(3\) = -1\.0 < 0$"):
            crit_canonical_sumq(ceq, 20)

    def test_q_tilde_short_of_horizon_is_stage_error(self):
        # the table ends at 50: the first index it does not cover is named
        ceq = comparison_eq(
            r_tilde=Sequence.from_expression("1"),
            q_tilde=Sequence.from_table(1, [0.5] * 50),
            sigma=1,
            zeta0=1,
        )
        with pytest.raises(StageError, match=r"^hypothesis H2 violated: q not evaluable: index 51 outside table table\[1\.\.50\]$"):
            crit_canonical_sumq(ceq, 100)


POLYNOMIAL_R = ("z*(z+1)", "z*(z+1.7)", "(z+1)*(z+2)", "(z+0.5)*(z+2.5)")
EXPONENTIAL_R = ("3^z", "2^z*(z+1)")


class TestAlphaOneIdentity:
    """At alpha = 1 the transform is exact: x solves the equation exactly when
    u = x / theta solves the comparison equation, since theta(z) - theta(z+1) = 1/r(z)
    gives D(rt D u)(z) + qt(z) u(d(z)) = theta(z+1) (D(r D x)(z) + q(z) x(d(z))) in
    either delay form.  to_canonical's equation is the model equation in u itself.
    The identity checks theta's differences, the transform, iterate and the residual
    against each other; it does not see theta's level."""

    HORIZON = 150

    @settings(max_examples=80, deadline=None)
    @given(r_text=st.sampled_from(POLYNOMIAL_R + EXPONENTIAL_R),
           q_text=st.sampled_from(("0.3", "2*z^(-1/2)", "0.05", "1")),
           sigma=st.integers(1, 3),
           form=st.sampled_from(DelayForm),
           init=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))
    def test_comparison_residual_of_x_over_theta(self, r_text, q_text, sigma, form, init):
        values = init[:sigma + 2]
        # a relative bound cannot hold where u is subnormal, with its absolute spacing
        # 5e-324: one value is non-zero, and every non-zero value is above 1e-250
        assume(any(values) and all(abs(v) > 1e-250 for v in values if v))
        eq = HalfLinearEquation(r=Sequence.from_expression(r_text), q=Sequence.from_expression(q_text),
                                alpha=RationalExponent(1, 1), sigma=sigma, delay_form=form,
                                zeta0=4)  # r > 0 from zeta0 - sigma
        h = self.HORIZON
        traj = iterate(eq, InitialData.for_equation(eq, values), eq.zeta0 + h + 2)
        assert traj.status.kind is StatusKind.COMPLETED
        lo = traj.start_index
        u = [x / theta_extended(eq, lo + i).value for i, x in enumerate(traj.x)]
        ceq, u_seq = to_canonical(eq, h + 5), Sequence.from_table(lo, u)
        res = residual_pointwise(ceq, u_seq, eq.zeta0, eq.zeta0 + h)  # iterate's first step on
        if r_text in POLYNOMIAL_R:
            assert max(abs(v) for _, v in res) <= 1e-13 * max(map(abs, u))
            return
        # u grows like r: each index is measured against its largest residual term
        for z, v in res:
            terms = (ceq.r(z + 1) * (u_seq(z + 2) - u_seq(z + 1)), ceq.r(z) * (u_seq(z + 1) - u_seq(z)),
                     ceq.q(z) * u_seq(ceq.delayed_index(z)))
            assert abs(v) <= 1e-13 * max(map(abs, terms)), z
