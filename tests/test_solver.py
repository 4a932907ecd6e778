"""Tests for forward iteration, classification, residuals and the
positive-solution inequality monitor."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdelay import (
    DelayForm,
    HalfLinearEquation,
    InitialData,
    RationalExponent,
    Sequence,
    Trajectory,
    TrajectoryKind,
    classify_trajectory,
    example_equation,
    iterate,
    lemma22_check,
    residual,
    residual_pointwise,
)
from oscdelay.errors import DomainError
from oscdelay.power import signed_pow
from oscdelay.solver import StatusKind, TrajectoryStatus


def linear_eq(q_text="4", sigma=1, zeta0=0, form=DelayForm.MINUS_SIGMA):
    return HalfLinearEquation(
        r=Sequence.from_expression("1"),
        q=Sequence.from_expression(q_text),
        alpha=RationalExponent(1, 1),
        sigma=sigma,
        delay_form=form,
        zeta0=zeta0,
    )


ALTERNATING = Sequence.from_table(-5, [(-1.0) ** z for z in range(-5, 200)])


class TestInitialData:
    def test_length_enforced(self):
        eq = example_equation(3)
        with pytest.raises(ValueError):
            InitialData.for_equation(eq, [1.0, 2.0])

    def test_trivial_data_rejected(self):
        with pytest.raises(ValueError):
            InitialData(start_index=0, values=(0.0, 0.0, 0.0))

    def test_start_index(self):
        eq = example_equation(3)  # zeta0 = 1, sigma = 2
        init = InitialData.for_equation(eq, [1.0, 2.0, 3.0, 4.0])
        assert init.start_index == -1


class TestIterate:
    def test_alternating_solution(self):
        # x(z) = (-1)^z solves D^2 x(z) + 4 x(z-1) = 0
        eq = linear_eq()
        init = InitialData.for_equation(eq, [-1.0, 1.0, -1.0])
        traj = iterate(eq, init, 50)
        assert traj.status.kind is StatusKind.COMPLETED
        for z in range(traj.start_index, traj.end_index + 1):
            assert abs(traj.x_at(z) - (-1.0) ** z) <= 1e-12

    def test_linear_growth_without_forcing(self):
        eq = linear_eq(q_text="0", sigma=0)
        init = InitialData.for_equation(eq, [0.0, 1.0])
        traj = iterate(eq, init, 30)
        for z in range(0, 31):
            assert traj.x_at(z) == pytest.approx(float(z), abs=1e-12)

    def test_quasi_difference_constant_without_forcing(self):
        eq = HalfLinearEquation(
            r=Sequence.from_expression("z+1"),
            q=Sequence.from_expression("0"),
            alpha=RationalExponent(1, 3),
            sigma=0,
            delay_form=DelayForm.MINUS_SIGMA,
            zeta0=0,
        )
        init = InitialData.for_equation(eq, [1.0, 3.0])
        traj = iterate(eq, init, 30)
        assert max(abs(v - traj.y[0]) for v in traj.y) <= 1e-12 * max(1.0, abs(traj.y[0]))

    def test_y_consistent_with_x(self):
        eq = example_equation(3)
        init = InitialData.for_equation(eq, [1.0, 0.9, 0.8, 0.7])
        traj = iterate(eq, init, 25)
        for z in range(traj.y_start, traj.y_start + len(traj.y)):
            want = eq.r(z) * signed_pow(traj.x_at(z + 1) - traj.x_at(z), eq.alpha)
            assert abs(traj.y_at(z) - want) <= 1e-9 * max(1.0, abs(want))

    def test_overflow_truncates_and_marks(self):
        eq = linear_eq(q_text="0-1", sigma=0)  # q = -1: runaway growth, H2 violated on purpose
        init = InitialData.for_equation(eq, [1.0, 2.0])
        traj = iterate(eq, init, 3000)
        assert traj.status.kind is StatusKind.OVERFLOWED
        assert traj.status.at is not None
        assert len(traj.x) < 3001 - traj.start_index + 1

    @pytest.mark.parametrize("alpha, values", [
        (RationalExponent(1, 1), (0.0, -1e308, 1e308)),  # the first difference is inf
        (RationalExponent(3, 1), (0.0, 1.0, 1e308)),     # its cube overflows
    ])
    def test_first_step_overflow_marks_zeta0(self, alpha, values):
        eq = HalfLinearEquation(r=Sequence.from_expression("1"), q=Sequence.from_expression("1"),
                                alpha=alpha, sigma=1, delay_form=DelayForm.MINUS_SIGMA, zeta0=1)
        traj = iterate(eq, InitialData.for_equation(eq, values), 30)
        assert traj.status == TrajectoryStatus(StatusKind.OVERFLOWED, 1)
        assert traj.x == values and traj.y == ()

    def test_quasi_difference_overflow_marks_next_index(self):
        # y(3) = y(2) - 1e308 * x(1) = -2e308
        eq = linear_eq(q_text="1e308", zeta0=1)
        traj = iterate(eq, InitialData.for_equation(eq, [1.0, 1.0, 1.0]), 30)
        assert traj.status == TrajectoryStatus(StatusKind.OVERFLOWED, 3)
        assert len(traj.y) == 2 and traj.end_index == 3

    def test_nonpositive_r_marks_next_index(self):
        eq = HalfLinearEquation(r=Sequence.from_expression("5-z"), q=Sequence.from_expression("1"),
                                alpha=RationalExponent(1, 1), sigma=1,
                                delay_form=DelayForm.MINUS_SIGMA, zeta0=1)
        traj = iterate(eq, InitialData.for_equation(eq, [1.0, 1.0, 1.0]), 30)
        assert traj.status == TrajectoryStatus(StatusKind.DOMAIN_ERROR, 5)  # r(5) = 0
        assert traj.end_index == 5

    def test_underflowing_q_completes(self):
        # q(z) = 1/2^z is 0.0 from z = 1024 on: 2^z overflows to inf, and 1/inf is 0
        eq = linear_eq(q_text="1/2^z", sigma=0, zeta0=1)
        traj = iterate(eq, InitialData.for_equation(eq, [1.0, 0.5]), 1100)
        assert traj.status == TrajectoryStatus(StatusKind.COMPLETED)
        assert traj.end_index == 1100 and all(map(math.isfinite, traj.x))

    def test_wrong_initial_length(self):
        eq = linear_eq()
        with pytest.raises(ValueError):
            iterate(eq, InitialData(start_index=-1, values=(1.0, 1.0)), 50)

    def test_short_horizon_rejected(self):
        eq = linear_eq()
        init = InitialData.for_equation(eq, [-1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            iterate(eq, init, 1)

    def test_monotone_quasi_difference_on_positive_window(self):
        eq = example_equation(3)
        init = InitialData.for_equation(eq, [1.0, 0.9, 0.8, 0.7])
        traj = iterate(eq, init, 40)
        for z in range(traj.y_start, traj.y_start + len(traj.y) - 1):
            if traj.x_at(eq.delayed_index(z)) > 0:
                assert traj.y_at(z + 1) <= traj.y_at(z) + 1e-12

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity_of_iterate(self, c):
        eq = example_equation(3)
        base = [1.0, 0.9, 0.8, 0.7]
        t1 = iterate(eq, InitialData.for_equation(eq, base), 30)
        t2 = iterate(eq, InitialData.for_equation(eq, [c * v for v in base]), 30)
        for a, b in zip(t1.x, t2.x):
            assert abs(b - c * a) <= 1e-9 * max(1.0, abs(c * a))


class TestDivisionByZero:
    @pytest.mark.parametrize("r", [
        Sequence.from_expression("1/(z-5)+10"),
        Sequence.from_table(1, [math.inf if z == 5 else 1.0 / (z - 5) + 10.0 for z in range(1, 30)]),
    ], ids=["expression", "table"])
    def test_iterate_stops_with_domain_error_at_pole(self, r):
        eq = HalfLinearEquation(r=r, q=Sequence.from_expression("1"), alpha=RationalExponent(1, 1),
                                sigma=0, delay_form=DelayForm.MINUS_SIGMA, zeta0=1)
        traj = iterate(eq, InitialData.for_equation(eq, [1.0, 0.5]), 20)
        assert traj.status == TrajectoryStatus(StatusKind.DOMAIN_ERROR, 5)
        assert traj.end_index == 5


class TestClassify:
    def test_alternating_is_oscillatory(self):
        traj = Trajectory(
            start_index=0,
            x=tuple((-1.0) ** z for z in range(40)),
            y_start=0,
            y=(),
            status=TrajectoryStatus(StatusKind.COMPLETED),
        )
        cls = classify_trajectory(traj, tol=1e-8)
        assert cls.kind is TrajectoryKind.OSCILLATORY_WITNESS
        assert cls.sign_changes > 0
        assert traj.start_index <= cls.first_change <= traj.end_index

    def test_geometric_decay_tends_to_zero(self):
        traj = Trajectory(
            start_index=0,
            x=tuple(0.5 ** z for z in range(40)),
            y_start=0,
            y=(),
            status=TrajectoryStatus(StatusKind.COMPLETED),
        )
        cls = classify_trajectory(traj, tol=1e-3)
        assert cls.kind is TrajectoryKind.TENDS_TO_ZERO
        assert cls.bound is not None and cls.bound < 1e-3

    def test_linear_growth_eventually_positive(self):
        traj = Trajectory(
            start_index=0,
            x=tuple(float(z) for z in range(40)),
            y_start=0,
            y=(),
            status=TrajectoryStatus(StatusKind.COMPLETED),
        )
        assert classify_trajectory(traj).kind is TrajectoryKind.EVENTUALLY_POSITIVE

    def test_negative_mirror(self):
        traj = Trajectory(
            start_index=0,
            x=tuple(-float(z) - 1.0 for z in range(40)),
            y_start=0,
            y=(),
            status=TrajectoryStatus(StatusKind.COMPLETED),
        )
        assert classify_trajectory(traj).kind is TrajectoryKind.EVENTUALLY_NEGATIVE

    def test_too_short_rejected(self):
        traj = Trajectory(0, (1.0, 2.0), 0, (), TrajectoryStatus(StatusKind.COMPLETED))
        with pytest.raises(ValueError):
            classify_trajectory(traj)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
    def test_tol_not_finite_or_negative_rejected(self, tol):
        # a NaN tol would count every entry as zero: tends_to_zero for any trajectory
        traj = Trajectory(0, tuple(float(z) for z in range(40)), 0, (),
                          TrajectoryStatus(StatusKind.COMPLETED))
        with pytest.raises(ValueError, match="tol"):
            classify_trajectory(traj, tol=tol)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_positive_scaling(self, c):
        xs = tuple((-1.0) ** z * (1.0 + 0.1 * z) for z in range(40))
        t1 = Trajectory(0, xs, 0, (), TrajectoryStatus(StatusKind.COMPLETED))
        t2 = Trajectory(0, tuple(c * v for v in xs), 0, (), TrajectoryStatus(StatusKind.COMPLETED))
        k1 = classify_trajectory(t1, tol=1e-8).kind
        k2 = classify_trajectory(t2, tol=1e-8 * c).kind
        assert k1 == k2


class TestResidual:
    def test_alternating_exact(self):
        assert residual(linear_eq(), ALTERNATING, 2, 100) <= 1e-12

    def test_constant_with_zero_forcing(self):
        eq = linear_eq(q_text="0", sigma=1)
        const = Sequence.from_expression("3.7")
        assert residual(eq, const, 2, 50) == 0.0

    def test_perturbation_detected(self):
        bumped = Sequence.from_table(40, [(-1.0) ** z + (0.1 if z == 50 else 0.0)
                                          for z in range(40, 60)])
        rows = residual_pointwise(linear_eq(), bumped, 48, 51)
        assert max(abs(v) for _, v in rows) > 0.05

    def test_self_consistency_of_iterate(self):
        eq = example_equation(3)
        init = InitialData.for_equation(eq, [1.0, 0.9, 0.8, 0.7])
        traj = iterate(eq, init, 40)
        assert traj.status.kind is StatusKind.COMPLETED
        worst = residual(eq, traj.as_sequence(), eq.zeta0, traj.end_index - 2)
        scale = max(1.0, max(abs(v) for v in traj.y))
        assert worst <= 1e-9 * scale

    @given(st.floats(min_value=-5.0, max_value=5.0).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_pointwise(self, c):
        eq = example_equation(3)
        xs = {z: math.sin(z) + 1.5 for z in range(-2, 30)}
        cand = Sequence.from_table(-2, [xs[z] for z in range(-2, 30)])
        scaled = Sequence.from_table(-2, [c * xs[z] for z in range(-2, 30)])
        base = residual_pointwise(eq, cand, 1, 25)
        got = residual_pointwise(eq, scaled, 1, 25)
        factor = signed_pow(c, eq.alpha)
        for (_, lhs), (_, lhs_c) in zip(base, got):
            assert abs(lhs_c - factor * lhs) <= 1e-9 * max(1.0, abs(factor * lhs))


def residual_loop(eq, candidate, frm, to):
    """The per-index residual the columnar one must reproduce, kept as its oracle;
    each value comes with the sum of the magnitudes of its three terms."""
    out = []
    a = eq.alpha
    for z in range(frm, to + 1):
        x0, x1, x2 = candidate(z), candidate(z + 1), candidate(z + 2)
        xd = candidate(eq.delayed_index(z))
        terms = (eq.r(z + 1) * signed_pow(x2 - x1, a), eq.r(z) * signed_pow(x1 - x0, a),
                 eq.q(z) * signed_pow(xd, a))
        out.append((z, terms[0] - terms[1] + terms[2], sum(abs(t) for t in terms)))
    return out


def _trajectory_case(eq, steps):
    init = [0.3, -0.7, 0.1, 0.9][:eq.sigma + 2]
    traj = iterate(eq, InitialData.for_equation(eq, init), eq.zeta0 + steps)
    return eq, traj.as_sequence(), eq.zeta0, traj.end_index - 2


POLY_EQ = HalfLinearEquation(
    r=Sequence.from_expression("(z*(z+1.7))^(5/3)"),
    q=Sequence.from_expression("1.3*(z^2-1)*z^(2/3)"),
    alpha=RationalExponent(5, 3), sigma=2, delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE, zeta0=1,
)
SMOOTH = Sequence.from_table(-5, [math.sin(z) + 1.5 for z in range(-5, 40)])


class TestResidualParity:
    """The columnar residual matches the per-index loop: values within 1e-15 of the
    scale of their terms (numpy's array pow and r, q may differ from the scalar
    ones in the last bit), errors with the same type and message."""

    @pytest.mark.parametrize("case", [
        lambda: (linear_eq(), ALTERNATING, 2, 100),
        lambda: (example_equation(3), SMOOTH, 1, 25),
        lambda: _trajectory_case(example_equation(1), 300),
        lambda: _trajectory_case(example_equation(2), 300),
        lambda: _trajectory_case(example_equation(3), 300),
        lambda: _trajectory_case(POLY_EQ, 5000),
    ], ids=["alternating", "table", "example1", "example2", "example3", "poly"])
    def test_values_match_loop(self, case):
        eq, cand, frm, to = case()
        got = residual_pointwise(eq, cand, frm, to)
        want = residual_loop(eq, cand, frm, to)
        assert [z for z, _ in got] == [z for z, _, _ in want]
        for (_, value), (_, ref, scale) in zip(got, want):
            assert abs(value - ref) <= 1e-15 * scale

    @pytest.mark.parametrize("eq, frm, to, message", [
        (example_equation(3), 1, 20, "index 1 below domain start 3 of table[3..32]"),
        (example_equation(3), 3, 20, "index 2 below domain start 3 of table[3..32]"),  # d(3) = 2
        (example_equation(3), 4, 31, "index 33 outside table table[3..32]"),
        (linear_eq(q_text="1/(z-5)+10", zeta0=1), 4, 20, "division by zero"),
        (linear_eq(q_text="pow(z-8, 2)", zeta0=1), 4, 20, "negative base with non-literal exponent"),
        (linear_eq(q_text="2^z", zeta0=1), 4, 1030, "2^z is not finite at index 1024"),  # overflow
    ], ids=["below_frm", "below_delayed", "past_end", "pole", "negative_base", "overflow"])
    def test_same_error_as_loop(self, eq, frm, to, message):
        cand = Sequence.from_table(3, [math.cos(z) for z in range(3, 33 if to < 32 else 1040)])
        with pytest.raises(DomainError) as want:
            residual_loop(eq, cand, frm, to)
        with pytest.raises(DomainError) as got:
            residual_pointwise(eq, cand, frm, to)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value) == message


class TestLemma22Check:
    def test_alpha_one_never_violates(self):
        eq = HalfLinearEquation(
            r=Sequence.from_expression("z*(z+1)"),
            q=Sequence.from_expression("1/z^3"),
            alpha=RationalExponent(1, 1),
            sigma=1,
            delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
            zeta0=1,
        )
        init = InitialData.for_equation(eq, [1.0, 0.9, 0.85])
        traj = iterate(eq, init, 40)
        assert lemma22_check(eq, traj) == []

    def test_positive_decreasing_solution_clean(self):
        # small forcing keeps the trajectory positive and decreasing over the
        # whole window, so the inequality must hold everywhere
        eq = HalfLinearEquation(
            r=Sequence.from_expression("(z*(z+1))^(5/3)"),
            q=Sequence.from_expression("z^(0-4)/100"),
            alpha=RationalExponent(5, 3),
            sigma=2,
            delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
            zeta0=1,
            theta_closed_form=Sequence.from_expression("1/z"),
        )
        init = InitialData.for_equation(eq, [1.0, 0.5, 1.0 / 3.0, 0.25])
        traj = iterate(eq, init, 80)
        assert all(v > 0 for v in traj.x)
        assert all(b < a for a, b in zip(traj.x, traj.x[1:]))
        assert lemma22_check(eq, traj) == []

    def test_oscillation_bound_violations_reported(self):
        # every solution of the third example oscillates, so its trajectories
        # cannot satisfy the eventually-positive bound for long: violations
        # are genuine and must be reported with their indices
        eq = example_equation(3)
        init = InitialData.for_equation(eq, [1.0, 0.9, 0.8, 0.7])
        traj = iterate(eq, init, 40)
        violations = lemma22_check(eq, traj)
        assert violations
        for z, lhs, rhs in violations:
            assert eq.zeta0 <= z < traj.end_index
            assert lhs > rhs

    def test_tabulated_violation(self):
        eq = example_equation(3)
        # a steep positive drop violates the bound at z = 1 by construction
        traj = Trajectory(
            start_index=-1,
            x=(1.0, 1.0, 1.0, 1e-6, 1e-6, 1e-6),
            y_start=1,
            y=(),
            status=TrajectoryStatus(StatusKind.COMPLETED),
        )
        violations = lemma22_check(eq, traj)
        assert any(z == 1 for z, _, _ in violations)

    def test_wrong_form_rejected(self):
        eq = example_equation(2)
        init = InitialData.for_equation(eq, [1.0, 0.9, 0.8])
        traj = iterate(eq, init, 30)
        with pytest.raises(ValueError):
            lemma22_check(eq, traj)

    def test_alpha_below_one_rejected(self):
        eq = HalfLinearEquation(
            r=Sequence.from_expression("2^z"),
            q=Sequence.from_expression("1"),
            alpha=RationalExponent(1, 3),
            sigma=1,
            delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
            zeta0=1,
        )
        init = InitialData.for_equation(eq, [1.0, 0.9, 0.8])
        traj = iterate(eq, init, 30)
        with pytest.raises(ValueError):
            lemma22_check(eq, traj)

    def test_no_positive_window_rejected(self):
        eq = example_equation(3)
        traj = Trajectory(
            start_index=-1,
            x=(-1.0, -1.0, -1.0, -1.0, -1.0, -1.0),
            y_start=1,
            y=(),
            status=TrajectoryStatus(StatusKind.COMPLETED),
        )
        with pytest.raises(ValueError):
            lemma22_check(eq, traj)
