"""Tests for forward iteration, trajectory classification and residuals."""
import math
import random
from unittest import mock

import numpy as np
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
    TrajectoryClass,
    TrajectoryKind,
    classify_trajectory,
    example_equation,
    iterate,
    residual,
    residual_pointwise,
)
from oscdelay import solver
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
            assert abs(traj.y[z - traj.y_start] - want) <= 1e-9 * max(1.0, abs(want))

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
                assert traj.y[z + 1 - traj.y_start] <= traj.y[z - traj.y_start] + 1e-12

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


def iterate_loop(eq, init, horizon):
    """The per-index iteration the block-column one must reproduce, kept as its oracle:
    scalar calls q(z) and r(z + 1) at every step."""
    x, start, z0, a = list(init.values), init.start_index, eq.zeta0, eq.alpha
    lag = eq.delayed_index(0) - start
    y = []

    def fail(kind, at):
        return Trajectory(start, tuple(x), z0, tuple(y), TrajectoryStatus(kind, at))

    try:
        r0 = eq.r(z0)
    except DomainError:
        return fail(StatusKind.DOMAIN_ERROR, z0)
    if r0 <= 0:
        return fail(StatusKind.DOMAIN_ERROR, z0)
    dx = x[z0 + 1 - start] - x[z0 - start]
    if not math.isfinite(dx):
        return fail(StatusKind.OVERFLOWED, z0)
    try:
        y.append(r0 * signed_pow(dx, a))
    except OverflowError:
        return fail(StatusKind.OVERFLOWED, z0)
    for z in range(z0, horizon - 1):
        try:
            y_next = y[-1] - eq.q(z) * signed_pow(x[z + lag], a)
            if not math.isfinite(y_next):
                return fail(StatusKind.OVERFLOWED, z + 1)
            rz1 = eq.r(z + 1)
            if rz1 <= 0:
                return fail(StatusKind.DOMAIN_ERROR, z + 1)
            step = y_next / rz1
            if not math.isfinite(step):
                return fail(StatusKind.OVERFLOWED, z + 2)
            x_next = x[-1] + signed_pow(step, a.reciprocal())
            if not math.isfinite(x_next):
                return fail(StatusKind.OVERFLOWED, z + 2)
        except OverflowError:
            return fail(StatusKind.OVERFLOWED, z + 2)
        except DomainError:
            return fail(StatusKind.DOMAIN_ERROR, z + 1)
        y.append(y_next)
        x.append(x_next)
    return Trajectory(start, tuple(x), z0, tuple(y), TrajectoryStatus(StatusKind.COMPLETED))


def _bits(values):
    return [v.hex() for v in values]


_BAD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300])


@st.composite
def _table_values(draw, low):
    """Finite entries in [low, 20] with a few NaN, infinite, zero, negative or huge ones."""
    size = draw(st.integers(1, 70))
    values = draw(st.lists(st.floats(min_value=low, max_value=20.0), min_size=size, max_size=size))
    for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[i] = draw(_BAD)
    return values


_ALPHAS = [RationalExponent(1, 1), RationalExponent(1, 3), RationalExponent(5, 3),
           RationalExponent(3, 1)]


class TestIterateParity:
    """iterate reads r and q as block columns and matches the per-index loop."""

    @given(
        r_values=_table_values(0.05),
        q_values=_table_values(-20.0),
        alpha=st.sampled_from(_ALPHAS),
        sigma=st.integers(0, 2),
        form=st.sampled_from(list(DelayForm)),
        init=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4),
        steps=st.integers(2, 64),
        block=st.sampled_from([1, 3, 7, solver.ITERATE_BLOCK]),
    )
    @settings(max_examples=300, deadline=None)
    def test_tables_bit_identical_to_loop(self, r_values, q_values, alpha, sigma, form, init,
                                          steps, block):
        # a table's column is its entries, so every value and the status agree bit for bit,
        # tables that end before the horizon included
        zeta0 = 1
        if form is DelayForm.MINUS_SIGMA_PLUS_ONE:
            sigma = max(sigma, 1)
        eq = HalfLinearEquation(r=Sequence.from_table(zeta0, r_values),
                                q=Sequence.from_table(zeta0, q_values), alpha=alpha, sigma=sigma,
                                delay_form=form, zeta0=zeta0)
        values = init[:sigma + 1] + [init[sigma + 1] or 1.0]
        data = InitialData.for_equation(eq, values)
        with mock.patch.object(solver, "ITERATE_BLOCK", block):
            got = iterate(eq, data, zeta0 + steps)
        want = iterate_loop(eq, data, zeta0 + steps)
        assert got.status == want.status
        assert _bits(got.x) == _bits(want.x) and _bits(got.y) == _bits(want.y)

    @pytest.mark.parametrize("r_text, q_text, zeta0, values, horizon", [
        ("1/(z-5)", "1", 1, (1.0, 0.5, 0.2), 20),            # r(1) < 0
        ("1/(5-z)", "1", 1, (1.0, 0.5, 0.2), 20),            # a pole in the loop
        ("1/(z-5)+10", "1", 1, (1.0, 0.5, 0.2), 20),
        ("z-10", "1", 1, (1.0, 0.5, 0.2), 20),               # r(1) < 0
        ("z-10", "1", 11, (1.0, 0.5, 0.2), 40),
        ("10-z", "1", 1, (1.0, 0.5, 0.2), 20),               # r(10) = 0
        ("1", "0-1", 1, (1.0, 2.0, 2.5), 3000),              # runaway growth
        ("1", "1e308", 1, (1.0, 1.0, 1.0), 30),              # y overflows
        ("1", "1", 1, (0.0, -1e308, 1e308), 30),             # the first difference is inf
        ("1/2^z", "1", 1, (1.0, 0.5, 0.2), 1100),            # y / r overflows
        ("1", "2^z", 1, (1.0, 0.5, 0.2), 1100),              # q is inf from 1024 on
        ("1", "pow(8-z, 2)", 1, (1.0, 0.5, 0.2), 30),         # a negative base at 9
        ("1", "1/2^z", 1, (1.0, 0.5, 0.2), 1100),            # q underflows to 0.0
        ("2^(z/3)", "2.0*2^z", 1, (0.3, -0.7, 0.2), 400),    # example 1
    ])
    @pytest.mark.parametrize("block", [4, solver.ITERATE_BLOCK])
    def test_expressions_stop_where_the_loop_stops(self, r_text, q_text, zeta0, values, horizon,
                                                   block):
        eq = HalfLinearEquation(r=Sequence.from_expression(r_text),
                                q=Sequence.from_expression(q_text), alpha=RationalExponent(1, 1),
                                sigma=1, delay_form=DelayForm.MINUS_SIGMA, zeta0=zeta0)
        data = InitialData.for_equation(eq, values)
        with mock.patch.object(solver, "ITERATE_BLOCK", block):
            got = iterate(eq, data, horizon)
        want = iterate_loop(eq, data, horizon)
        assert got.status == want.status
        assert got.end_index == want.end_index and len(got.y) == len(want.y)

    def test_zero_base_powers_to_positive_zero(self):
        # y(1) = 1e-200 * -1e-200 underflows to -0.0 and x(d(1)) = x(0) is -0.0; its power is
        # +0.0, as signed_pow gives, so y(2) = -0.0 - 0.0 keeps the sign bit (copysign would not)
        eq = HalfLinearEquation(r=Sequence.from_table(1, [1e-200] + [1.0] * 6),
                                q=Sequence.from_expression("1"), alpha=RationalExponent(1, 1),
                                sigma=1, delay_form=DelayForm.MINUS_SIGMA, zeta0=1)
        data = InitialData.for_equation(eq, (-0.0, 1e-200, 0.0))
        got, want = iterate(eq, data, 6), iterate_loop(eq, data, 6)
        assert got.y[2 - got.y_start].hex() == "-0x0.0p+0"
        assert got.status == want.status == TrajectoryStatus(StatusKind.COMPLETED)
        assert _bits(got.x) == _bits(want.x) and _bits(got.y) == _bits(want.y)

    @pytest.mark.parametrize("alpha, q_text, values", [
        (RationalExponent(3, 1), "1", (1e103, 1.0, 1.0)),         # x(d(1))^3 overflows
        (RationalExponent(1, 3), "0-1e103", (1.0, 1.0, 1.0)),     # (y(2)/r(2))^3 overflows
    ], ids=["delayed_term", "step"])
    def test_power_overflow_stops_at_next_but_one(self, alpha, q_text, values):
        # |t| ** 3 raises OverflowError once |t| passes 5.7e102
        eq = HalfLinearEquation(r=Sequence.from_expression("1"), q=Sequence.from_expression(q_text),
                                alpha=alpha, sigma=1, delay_form=DelayForm.MINUS_SIGMA, zeta0=1)
        data = InitialData.for_equation(eq, values)
        got, want = iterate(eq, data, 30), iterate_loop(eq, data, 30)
        assert got.status == want.status == TrajectoryStatus(StatusKind.OVERFLOWED, 3)
        assert _bits(got.x) == _bits(want.x) and _bits(got.y) == _bits(want.y)


def _rerun_case(case, block):
    """(equation, initial data, horizon, planted index m, expected status) for a failure planted
    at m, the middle of iterate's second block; z0 = 1 and the run spans three blocks."""
    rng = random.Random(case)
    z0, m, horizon = 1, 1 + block + block // 2, 1 + 3 * block
    r = [rng.uniform(1.0, 2.0) for _ in range(horizon + 2)]  # r(z) is r[z - 1]
    q = [rng.uniform(0.0, 1e-7) for _ in range(horizon + 2)]
    alpha, values = RationalExponent(1, 1), (2.0, 2.5, 3.0)  # x rises from 2 on
    if case == "alpha-3-power":
        alpha, q = RationalExponent(3, 1), [0.0] * len(q)  # y stays r(1) / 8

    def build():
        return HalfLinearEquation(r=Sequence.from_table(z0, r), q=Sequence.from_table(z0, q),
                                  alpha=alpha, sigma=1, delay_form=DelayForm.MINUS_SIGMA, zeta0=z0)

    data = InitialData.for_equation(build(), values)
    base = iterate_loop(build(), data, horizon)
    x_at, y_at = base.x_at, lambda z: base.y[z - base.y_start]
    if case == "nan-q":
        q[m - 1], want = math.nan, TrajectoryStatus(StatusKind.DOMAIN_ERROR, m + 1)
    elif case == "y-overflows":  # q(m) * x(m - 1) passes 2e308
        q[m - 1], want = 1e308, TrajectoryStatus(StatusKind.OVERFLOWED, m + 1)
    elif case == "zero-r":
        r[m], want = 0.0, TrajectoryStatus(StatusKind.DOMAIN_ERROR, m + 1)
    elif case == "subnormal-r":  # y(m + 1) / r(m + 1) is inf
        r[m], want = 5e-324, TrajectoryStatus(StatusKind.OVERFLOWED, m + 2)
    elif case == "alpha-3-power":
        # two steps of (1.2e308)^(1/3) = 4.9e102 take x(m + 3) to 1e103, whose cube, read as
        # x(d(m + 4)), raises OverflowError
        r[m] = r[m + 1] = y_at(m + 1) / 1.2e308
        want = TrajectoryStatus(StatusKind.OVERFLOWED, m + 6)
    else:  # "x-reaches-inf": y(m + 1) = 1e308 and r = 1, so x(m + 3) = 2e308 is inf
        q[m - 1], r[m:m + 4] = -1e308 / x_at(m - 1), [1.0] * 4
        want = TrajectoryStatus(StatusKind.OVERFLOWED, m + 3)
    return build(), data, horizon, m, want


class TestIterateRerun:
    """A failure in the middle of a block: the unchecked pass is dropped and the checked loop
    reruns the block, so the values and the status are the per-index loop's, bit for bit."""

    @pytest.mark.parametrize("case", ["nan-q", "y-overflows", "zero-r", "subnormal-r",
                                      "alpha-3-power", "x-reaches-inf"])
    @pytest.mark.parametrize("block", [8, 1024])
    def test_failure_mid_block_matches_loop(self, case, block):
        eq, data, horizon, m, status = _rerun_case(case, block)
        want = iterate_loop(eq, data, horizon)
        assert want.status == status
        with mock.patch.object(solver, "ITERATE_BLOCK", block):
            got = iterate(eq, data, horizon)
        assert got.status == want.status
        assert _bits(got.x) == _bits(want.x) and _bits(got.y) == _bits(want.y)

    @pytest.mark.parametrize("block", [8, 1024])
    def test_x_reaching_inf_on_clean_coefficients(self, block):
        # the block's q is finite and its r in (0, inf), so it runs unchecked first: after x
        # is inf, inf - inf and 0 * inf keep the end non-finite, and the block is rerun
        eq, data, horizon, m, _ = _rerun_case("x-reaches-inf", block)
        cells = np.arange(1 + block, 1 + 2 * block)
        q, r = eq.q.eval_array(cells), eq.r.eval_array(cells + 1)
        assert np.isfinite(q).all() and ((r > 0) & (r < math.inf)).all()
        with mock.patch.object(solver, "ITERATE_BLOCK", block):
            got = iterate(eq, data, horizon)
        assert got.status == TrajectoryStatus(StatusKind.OVERFLOWED, m + 3)
        assert got.end_index == m + 2 and all(map(math.isfinite, got.x + got.y))
        assert got.x[-1] == pytest.approx(1e308)  # x(m + 2), before the step that overflows


class _Reads:
    """Counts the scalar calls and the column calls (with their points) of each sequence,
    through eval_array or a window read by column."""

    def __init__(self, monkeypatch):
        self.calls, self.columns, self.points = 0, {}, {}
        call, eval_array, column = Sequence.__call__, Sequence.eval_array, Sequence.column

        def counted_call(seq, zeta):
            self.calls += 1
            return call(seq, zeta)

        def count(seq, n):
            self.columns[id(seq)] = self.columns.get(id(seq), 0) + 1
            self.points[id(seq)] = self.points.get(id(seq), 0) + n

        def counted_eval_array(seq, z):
            count(seq, len(z))
            return eval_array(seq, z)

        def counted_column(seq, lo, n):
            count(seq, n)
            return column(seq, lo, n)

        monkeypatch.setattr(Sequence, "__call__", counted_call)
        monkeypatch.setattr(Sequence, "eval_array", counted_eval_array)
        monkeypatch.setattr(Sequence, "column", counted_column)


class TestIterateReads:
    def test_hot_loop_makes_no_scalar_calls(self, monkeypatch):
        reads = _Reads(monkeypatch)
        horizon = 5000
        traj = iterate(POLY_EQ, InitialData.for_equation(POLY_EQ, [0.3, -0.7, 0.1, 0.9]), horizon)
        assert traj.status.kind is StatusKind.COMPLETED
        assert reads.calls <= 1  # r(zeta0), read before the loop
        steps = horizon - 1 - POLY_EQ.zeta0
        for seq in (POLY_EQ.r, POLY_EQ.q):
            assert reads.columns[id(seq)] <= -(-steps // solver.ITERATE_BLOCK) + 1

    def test_early_stop_reads_one_block(self, monkeypatch):
        # example 1 overflows at 56; a horizon of zeta0 + 10^6 must not be evaluated
        eq = example_equation(1)
        reads = _Reads(monkeypatch)
        traj = iterate(eq, InitialData.for_equation(eq, [0.3, -0.7, 0.2]), eq.zeta0 + 10**6)
        assert traj.status == TrajectoryStatus(StatusKind.OVERFLOWED, 56)
        assert reads.points[id(eq.r)] <= solver.ITERATE_BLOCK
        assert reads.points[id(eq.q)] <= solver.ITERATE_BLOCK


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

    def test_flip_whose_product_underflows_counts(self):
        # (+-1e-200) * (-+1e-200) underflows to -0.0, so a product rule sees no flip
        traj = Trajectory(0, tuple((-1.0) ** z * 1e-200 for z in range(40)), 0, (),
                          TrajectoryStatus(StatusKind.COMPLETED))
        assert classify_trajectory(traj, tol=0.0) == TrajectoryClass(
            TrajectoryKind.OSCILLATORY_WITNESS, first_change=9, sign_changes=31)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_positive_scaling(self, c):
        xs = tuple((-1.0) ** z * (1.0 + 0.1 * z) for z in range(40))
        t1 = Trajectory(0, xs, 0, (), TrajectoryStatus(StatusKind.COMPLETED))
        t2 = Trajectory(0, tuple(c * v for v in xs), 0, (), TrajectoryStatus(StatusKind.COMPLETED))
        k1 = classify_trajectory(t1, tol=1e-8).kind
        k2 = classify_trajectory(t2, tol=1e-8 * c).kind
        assert k1 == k2


def classify_loop(traj, tol):
    """The per-entry classification the columnar one must reproduce, kept as its oracle:
    a flip is a change of sign between consecutive entries above tol."""
    burn_in = len(traj.x) // 5
    tail = traj.x[burn_in:]
    indices = range(traj.start_index + burn_in, traj.end_index + 1)
    signif = [(i, v) for i, v in zip(indices, tail) if abs(v) > tol]
    changes, first_change = 0, None
    for (_, a), (j, b) in zip(signif, signif[1:]):
        if (a < 0) != (b < 0):
            changes += 1
            if first_change is None:
                first_change = j
    if changes:
        return TrajectoryClass(TrajectoryKind.OSCILLATORY_WITNESS, first_change=first_change,
                               sign_changes=changes)
    tail_window = tail[-max(8, len(tail) // 4):]
    tail_max = max(abs(v) for v in tail_window)
    if not signif or tail_max < tol:
        return TrajectoryClass(TrajectoryKind.TENDS_TO_ZERO,
                               since=traj.end_index - len(tail_window) + 1, bound=tail_max)
    sign = 1.0 if signif[0][1] > 0 else -1.0
    if all(v * sign > 0 for _, v in signif) and all(v * sign > 0 for v in tail):
        kind = TrajectoryKind.EVENTUALLY_POSITIVE if sign > 0 else TrajectoryKind.EVENTUALLY_NEGATIVE
        return TrajectoryClass(kind, since=traj.start_index + burn_in)
    return TrajectoryClass(TrajectoryKind.INCONCLUSIVE)


@st.composite
def _tail_case(draw):
    """A trajectory and a tol: entries at +-tol and just past it, +-0.0, subnormals, tiny
    normals whose products underflow, +-inf and arbitrary finite values."""
    tol = draw(st.one_of(st.just(0.0), st.just(1e-8), st.floats(min_value=0.0, max_value=1e3)))
    edge = [tol, math.nextafter(tol, math.inf), 0.0, 5e-324, 1e-310, 1e-200, 1.0, math.inf]
    entry = st.one_of(st.sampled_from(edge), st.floats(allow_nan=False, allow_infinity=False))
    signed = st.tuples(entry, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    n = draw(st.integers(10, 40))
    x = draw(st.lists(signed, min_size=n, max_size=n))
    return Trajectory(draw(st.integers(-5, 5)), tuple(x), 0, (),
                      TrajectoryStatus(StatusKind.COMPLETED)), tol


class TestClassifyParity:
    @given(_tail_case())
    @settings(max_examples=500, deadline=None)
    def test_same_class_as_loop(self, case):
        traj, tol = case
        assert classify_trajectory(traj, tol) == classify_loop(traj, tol)


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

    @pytest.mark.parametrize("k, want", [(1, "nan"), (5, "nan")], ids=["nan_first", "nan_later"])
    def test_residual_is_first_max_of_pointwise(self, k, want):
        # r * Dx overflows from index k on: the pointwise values are inf - inf = nan from k and
        # inf at k - 1; a NaN value makes the residual NaN wherever it comes
        eq = HalfLinearEquation(r=Sequence.from_expression("1e300"), q=Sequence.from_expression("0"),
                                alpha=RationalExponent(1, 1), sigma=1,
                                delay_form=DelayForm.MINUS_SIGMA, zeta0=0)
        cand = Sequence.from_table(0, [max(0, z - k) * 1e10 for z in range(30)])
        rows = residual_pointwise(eq, cand, 1, 20)
        assert repr(residual(eq, cand, 1, 20)) == repr(float(np.max([abs(v) for _, v in rows]))) == want

    def test_nan_after_a_finite_value_makes_the_residual_nan(self):
        # q(3) * x(1)^3 = 0 * inf: the value at z = 3 is NaN, after the finite one at z = 2
        eq = HalfLinearEquation(r=Sequence.from_expression("z^3"), q=Sequence.from_expression("z - 3"),
                                alpha=RationalExponent(3, 1), sigma=3,
                                delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE, zeta0=2)
        cand = Sequence.from_table(-2, [1e300 if z == 1 else (-1.0) ** z for z in range(-2, 40)])
        rows = dict(residual_pointwise(eq, cand, 2, 30))
        assert math.isfinite(rows[2]) and math.isnan(rows[3])
        assert math.isnan(residual(eq, cand, 2, 30))
        assert math.isnan(residual(eq, cand, 3, 30))

    @pytest.mark.parametrize("cand", [
        Sequence.from_table(-1, [1e308, -1e308] * 60),  # each difference overflows to +-inf
        Sequence.from_expression("1e200*(z+1)"),  # each power 5/3 overflows
    ], ids=["differences", "powers"])
    def test_overflow_keeps_the_column_value(self, cand):
        # every input is finite and alpha = 5/3: the overflowed entries keep the column's
        # NaN, and no ValueError or OverflowError escapes from a scalar power
        eq = example_equation(3)
        rows = residual_pointwise(eq, cand, 1, 50)
        assert all(math.isnan(v) for _, v in rows)
        assert math.isnan(residual(eq, cand, 1, 50))

