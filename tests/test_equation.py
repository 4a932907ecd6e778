"""Tests for the equation model, tail sums and form classification."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscdelay import (
    DelayForm,
    FormClass,
    HalfLinearEquation,
    R_partial,
    RationalExponent,
    Sequence,
    TailConfig,
    classify_form,
    example_equation,
    theta,
    theta_extended,
    validate,
)
from oscdelay.equation import ValidationReport, Violation, _suffix_sums, _tail_table
from oscdelay.errors import DivisionByZero, DomainError, NonConvergentError


def make_eq(r_text, alpha, zeta0=1, q_text="1", sigma=0, theta_cf=None,
            form=DelayForm.MINUS_SIGMA):
    return HalfLinearEquation(
        r=Sequence.from_expression(r_text),
        q=Sequence.from_expression(q_text),
        alpha=alpha,
        sigma=sigma,
        delay_form=form,
        zeta0=zeta0,
        theta_closed_form=theta_cf,
    )


class TestModel:
    def test_plus_one_form_needs_sigma(self):
        with pytest.raises(ValueError):
            make_eq("z", RationalExponent(1, 1), form=DelayForm.MINUS_SIGMA_PLUS_ONE)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            HalfLinearEquation(
                r=Sequence.from_expression("1"),
                q=Sequence.from_expression("1"),
                alpha=RationalExponent(1, 1),
                sigma=-1,
                delay_form=DelayForm.MINUS_SIGMA,
                zeta0=0,
            )

    def test_delayed_index(self):
        eq = example_equation(3)
        assert eq.delayed_index(10) == 10 - 2 + 1
        eq2 = example_equation(2)
        assert eq2.delayed_index(10) == 10 - 1


class TestRPartial:
    def test_example3_telescopes(self):
        # r^(1/alpha) = z(z+1), so the sum telescopes: 1/2 + 1/6 = 2/3
        eq = example_equation(3)
        assert R_partial(eq, 3) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_empty_sum(self):
        eq = example_equation(1)
        assert R_partial(eq, eq.zeta0) == 0.0

    def test_constant_r(self):
        eq = make_eq("1", RationalExponent(1, 1), zeta0=0)
        assert R_partial(eq, 5) == pytest.approx(5.0)

    def test_below_zeta0_rejected(self):
        eq = example_equation(1)
        with pytest.raises(DomainError):
            R_partial(eq, eq.zeta0 - 1)


class TestTheta:
    def test_example2_closed_form(self):
        assert theta(example_equation(2), 3).value == pytest.approx(0.5, abs=1e-12)

    def test_example3_closed_form(self):
        assert theta(example_equation(3), 4).value == pytest.approx(0.25, abs=1e-12)

    def test_example1_geometric(self):
        assert theta(example_equation(1), 1).value == pytest.approx(1.0, abs=1e-12)

    def test_numeric_geometric_tail_certifies(self):
        eq = make_eq("2^(z/3)", RationalExponent(1, 3))
        res = theta(eq, 1)
        assert res.certified
        assert res.method == "geometric"
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.tail_bound is not None and res.tail_bound >= 0

    def test_numeric_polynomial_tail(self):
        # r^(1/alpha) = z(z+1): tail telescopes to exactly 1/z
        eq = make_eq("(z*(z+1))^(5/3)", RationalExponent(5, 3))
        res = theta(eq, 5)
        assert abs(res.value - 0.2) <= 1e-9
        assert res.method in ("geometric", "poly_tail")

    def test_divergent_tail_raises(self):
        eq = make_eq("1", RationalExponent(1, 1))
        with pytest.raises(NonConvergentError):
            theta(eq, 1)

    def test_closed_form_cross_check_catches_lies(self):
        eq = make_eq(
            "2^(z/3)",
            RationalExponent(1, 3),
            theta_cf=Sequence.closed_form("bogus", lambda z: 42.0),
        )
        with pytest.raises(ValueError):
            theta(eq, 1)

    def test_theta_recurrence(self):
        # theta(z) - theta(z+1) = r(z)^(-1/alpha)
        for n in (1, 2, 3):
            eq = example_equation(n)
            for z in range(eq.zeta0, eq.zeta0 + 30):
                lhs = theta(eq, z).value - theta(eq, z + 1).value
                rhs = eq.inv_r_alpha(z)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (n, z)

    def test_theta_strictly_decreasing(self):
        for n in (1, 2, 3):
            eq = example_equation(n)
            vals = [theta(eq, z).value for z in range(eq.zeta0, eq.zeta0 + 30)]
            assert all(b < a for a, b in zip(vals, vals[1:])), n

    def test_conservation_identity(self):
        # R(z) + theta(z) = theta(zeta0)
        for n in (1, 2, 3):
            eq = example_equation(n)
            total = theta(eq, eq.zeta0).value
            for z in range(eq.zeta0 + 1, eq.zeta0 + 40):
                got = R_partial(eq, z) + theta(eq, z).value
                assert abs(got - total) <= 1e-9 * abs(total), (n, z)

    def test_suffix_sums_compensated(self):
        # each reverse running sum is as accurate as math.fsum, not n * eps
        t = np.random.default_rng(0).uniform(0.0, 1.0, 65536)
        got = _suffix_sums(t)
        for i in range(0, t.size, 4096):
            want = math.fsum(t[i:])
            assert abs(got[i] - want) <= 2 * math.ulp(want), i

    def test_memoization_invisible(self):
        eq = example_equation(2)
        first = theta(eq, 7)
        second = theta(eq, 7)
        assert first == second

    def test_extension_below_domain(self):
        # theta(zeta0 - k) = theta(zeta0) + sum of r^(-1/alpha) over the gap
        eq = example_equation(1)
        ext = theta_extended(eq, 0)
        want = theta(eq, eq.zeta0).value + eq.inv_r_alpha(0)
        assert ext.value == pytest.approx(want, rel=1e-12)

    def test_extension_needs_positive_r(self):
        eq = example_equation(2)  # r(1) = 0
        with pytest.raises(DomainError):
            theta_extended(eq, 1)


class TestClassifyForm:
    def test_example1_non_canonical(self):
        assert classify_form(example_equation(1)) is FormClass.NON_CANONICAL

    def test_constant_r_canonical(self):
        eq = make_eq("1", RationalExponent(1, 1))
        assert classify_form(eq) is FormClass.CANONICAL

    def test_geometric_r_non_canonical(self):
        eq = make_eq("2^(z/3)", RationalExponent(1, 3))
        assert classify_form(eq) is FormClass.NON_CANONICAL

    def test_slow_polynomial_tail_inconclusive(self):
        # r^(-1/alpha) ~ z^(-1.5): converges but too slowly for the geometric
        # certificate, and no closed form is registered
        eq = make_eq("pow(z, 1.5)", RationalExponent(1, 1))
        assert classify_form(eq, TailConfig(max_terms=20_000)) in (
            FormClass.INCONCLUSIVE,
            FormClass.NON_CANONICAL,
        )


class TestValidate:
    def test_example1_ok(self):
        report = validate(example_equation(1), 100)
        assert report.ok

    def test_zero_q_flagged(self):
        eq = make_eq("1", RationalExponent(1, 1), q_text="0")
        report = validate(eq, 100)
        assert not report.ok
        assert report.violations[0].hypothesis == "H2"

    def test_sign_changing_r_flagged_at_first_offender(self):
        eq = make_eq("z-10", RationalExponent(1, 1), zeta0=1)
        report = validate(eq, 20)
        h1 = [v for v in report.violations if v.hypothesis == "H1"]
        assert h1 and h1[0].index == 1  # r(1) = -9 is the first offender

    def test_vanishing_r_flagged(self):
        eq = make_eq("z-10", RationalExponent(1, 1), zeta0=10)
        report = validate(eq, 20)
        h1 = [v for v in report.violations if v.hypothesis == "H1"]
        assert h1 and h1[0].index == 10  # r(10) = 0 violates strict positivity

    def test_negative_q_flagged(self):
        eq = make_eq("1", RationalExponent(1, 1), q_text="1-z", zeta0=0)
        report = validate(eq, 10)
        h2 = [v for v in report.violations if v.hypothesis == "H2"]
        assert h2 and h2[0].index == 2


def validate_loop(eq, horizon):
    """The per-index validate the columnar one must reproduce, kept as its oracle."""
    violations = []
    for hyp, name, seq, rel in (("H1", "r", eq.r, "<="), ("H2", "q", eq.q, "<")):
        positive = False
        for z in range(eq.zeta0, horizon + 1):
            try:
                v = seq(z)
            except DomainError as exc:
                violations.append(Violation(hyp, z, f"{name} not evaluable: {exc}"))
                break
            if v < 0 or (v == 0 and hyp == "H1"):
                violations.append(Violation(hyp, z, f"{name}({z}) = {v} {rel} 0"))
                break
            positive = positive or v > 0
        else:
            if hyp == "H2" and not positive:
                violations.append(
                    Violation("H2", None, f"q is identically zero on [{eq.zeta0}, {horizon}]")
                )
    violations.sort(key=lambda v: math.inf if v.index is None else v.index)
    return ValidationReport(horizon=horizon, violations=tuple(violations))


def seq_eq(r, q, zeta0=1):
    as_seq = lambda s: Sequence.from_expression(s) if isinstance(s, str) else s
    return HalfLinearEquation(r=as_seq(r), q=as_seq(q), alpha=RationalExponent(1, 1),
                              sigma=0, delay_form=DelayForm.MINUS_SIGMA, zeta0=zeta0)


def pole_at_5(z):
    """1/(z-5)+10 as a closed form: inf at 5 on a column, DivisionByZero at the scalar 5."""
    if np.ndim(z) == 0 and z == 5:
        raise DivisionByZero("division by zero")
    with np.errstate(divide="ignore"):
        return 1.0 / (np.asarray(z, dtype=float) - 5.0) + 10.0


def column_scalar_split(z):
    """A column that offends at 7 while the scalar values offend only at 9: where
    the two disagree (the last bit near 0), the per-index loop decides."""
    if np.ndim(z) == 0:
        return -1.0 if z == 9 else 1.0
    return np.where(np.asarray(z) == 7, -1.0, 1.0)


class TestValidateParity:
    """The columnar validate gives the report of the per-index loop."""

    @pytest.mark.parametrize("eq, horizon", [
        (seq_eq("z-10", "1"), 20),                                 # sign-changing r
        (seq_eq("z-10", "1", zeta0=10), 20),                       # vanishing r
        (seq_eq("1", "1-z", zeta0=0), 10),                         # negative q
        (seq_eq("1", "0"), 100),                                   # q identically zero
        (seq_eq("1", Sequence.from_table(1, [0.0] * 5 + [-1.0] * 20)), 20),  # zero, then negative
        (seq_eq("1", "(5 - z - ((z-5)^2)^(1/2))/2"), 20),        # the same as an expression
        (seq_eq("2^z", "1"), 1100),                                # r overflows at 1024
        (seq_eq("1", "2^z"), 1100),                                # q overflows at 1024
        (seq_eq("pow(z-5, 2)", "1"), 20),                          # negative base
        (seq_eq("1", "pow(z-5, 2)"), 20),
        (seq_eq("1/(z-5)+10", "1"), 20),                           # division by zero
        (seq_eq(Sequence.closed_form("pole", pole_at_5), "1"), 20),
        (seq_eq(Sequence.from_table(3, [1.0] * 30), "1"), 20),     # table below its domain start
        (seq_eq("z-10", "1-z", zeta0=0), 20),                      # H1 and H2 offenders
        (seq_eq(Sequence.closed_form("split", column_scalar_split), "1"), 20),
        (example_equation(1), 200),
        (example_equation(3), 20000),
    ])
    def test_same_report_as_loop(self, eq, horizon):
        assert validate(eq, horizon) == validate_loop(eq, horizon)


class TestDivisionByZero:
    """A zero denominator is a domain error: an H1 violation, not a crash."""

    @pytest.mark.parametrize("r", ["1/(z-5)+10", Sequence.closed_form("pole", pole_at_5)],
                             ids=["fallback", "columnar"])
    def test_validate_reports_h1_at_pole(self, r):
        report = validate(seq_eq(r, "1"), 20)
        assert report.violations == (Violation("H1", 5, "r not evaluable: division by zero"),)

    def test_division_by_zero_is_a_domain_error(self):
        assert issubclass(DivisionByZero, DomainError)


class TestTailCertificate:
    """A certified tail_bound is at least the true tail past the truncation index."""

    @pytest.mark.parametrize("r_text, term, last, certified", [
        ("z^6", lambda s: s ** -6.0, 10 ** 5, False),
        ("z^10", lambda s: s ** -10.0, 10 ** 4, False),
        ("2^z", lambda s: 2.0 ** -s, 2000, True),
        ("2^z/z^3", lambda s: s ** 3 * 2.0 ** -s, 2000, True),   # terms z^3 * 2^(-z)
    ])
    def test_bound_covers_true_tail(self, r_text, term, last, certified):
        res = theta(make_eq(r_text, RationalExponent(1, 1)), 1)
        assert res.certified is certified
        if res.certified:
            true_tail = math.fsum(term(s) for s in range(res.truncation_index + 1, last))
            assert res.tail_bound >= true_tail


class TestTableSharing:
    def test_equal_equations_hash_equal_and_share_one_table(self):
        a, b = make_eq("2^z", RationalExponent(1, 1)), make_eq("2^z", RationalExponent(1, 1))
        assert a is not b and a.r is not b.r
        assert a == b and hash(a) == hash(b) and hash(a.r) == hash(b.r)
        assert _tail_table(a, TailConfig()) is _tail_table(b, TailConfig())


class TestClosedFormCertification:
    """A closed form is certified only when a numeric check actually ran."""

    def test_unverifiable_closed_form_not_certified(self):
        # terms s^(-1.01): the cross-check stops at max_terms, far from the tail
        eq = make_eq("z^(101/100)", RationalExponent(1, 1),
                     theta_cf=Sequence.from_expression("12345"))
        res = theta(eq, 1)
        assert res.value == 12345.0
        assert not res.certified
        assert res.method == "closed_form_unverified"
        assert classify_form(eq) is FormClass.INCONCLUSIVE

    def test_closed_form_below_partial_sum_rejected(self):
        # the partial sum of positive terms is a certified lower bound
        eq = make_eq("z^(101/100)", RationalExponent(1, 1),
                     theta_cf=Sequence.from_expression("1"))
        with pytest.raises(ValueError, match="outside"):
            theta(eq, 1)

    def test_past_truncation_checked_against_tail_bound(self):
        # 2^(-z) is truncated near 30; theta(100) must lie in [0, tail_bound]
        eq = make_eq("2^(z/3)", RationalExponent(1, 3),
                     theta_cf=Sequence.closed_form("bogus", lambda z: 0.5))
        with pytest.raises(ValueError):
            theta(eq, 100)
        good = theta(example_equation(1), 100)
        assert good.certified and good.method == "closed_form"


@st.composite
def tail_cases(draw):
    """(equation, tail policy, 40 consecutive indices) with terms r^(-1/alpha)
    decaying like z^(-p) or b^(-z), every r in the window a finite float."""
    alpha = draw(st.sampled_from([RationalExponent(1, 3), RationalExponent(1, 1),
                                  RationalExponent(5, 3), RationalExponent(3, 1)]))
    c = draw(st.floats(0.5, 4.0))
    if draw(st.booleans()):
        p = draw(st.floats(2.0, 4.0))
        r_text, last = f"{c!r}*pow(z, {p * alpha.value!r})", 300
    else:
        base = draw(st.floats(1.2, 4.0)) ** alpha.value
        r_text, last = f"{c!r}*pow({base!r}, z)", min(300, int(250 / math.log10(base)))
    zeta0 = draw(st.integers(1, 5))
    start = draw(st.integers(zeta0, last - 40))
    cfg = TailConfig(tol_abs=1e-10, block=draw(st.sampled_from([64, 1000, 65536])))
    return make_eq(r_text, alpha, zeta0=zeta0), cfg, list(range(start, start + 41))


class TestThetaProperties:
    """Invariants of the tail sums over random power-law and geometric r."""

    @settings(max_examples=30, deadline=None)
    @given(tail_cases())
    # a power law whose ratios passed the geometric test at T = 189: theta rose at 257
    @example((make_eq("2.0*pow(z, 1.3333333333333333)", RationalExponent(1, 3)),
              TailConfig(tol_abs=1e-10, block=64), list(range(230, 271))))
    # terms 8/z^2: the minima of 64-term blocks fell by less than trend_tol past 128 000
    @example((make_eq("0.5*pow(z, 0.6666666666666666)", RationalExponent(1, 3)),
              TailConfig(tol_abs=1e-10, block=64), list(range(200, 241))))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_decreasing_and_recurrence(self, case):
        eq, cfg, zs = case
        th = {z: theta(eq, z, cfg).value for z in zs}
        for z in zs[:-1]:
            assert th[z + 1] < th[z]
            # theta(z) - theta(z+1) = r(z)^(-1/alpha)
            assert abs(th[z] - th[z + 1] - eq.inv_r_alpha(z)) <= 1e-12 * th[z]

    @settings(max_examples=30, deadline=None)
    @given(tail_cases())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_partial_plus_tail_constant(self, case):
        eq, cfg, zs = case
        total = theta(eq, eq.zeta0, cfg).value
        for z in zs:
            assert abs(R_partial(eq, z) + theta(eq, z, cfg).value - total) <= 1e-12 * total

    @settings(max_examples=20, deadline=None)
    @given(tail_cases())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_call_order_purity(self, case):
        eq, cfg, zs = case
        _tail_table.cache_clear()
        forward = [theta(eq, z, cfg) for z in zs]
        _tail_table.cache_clear()
        reverse = [theta(eq, z, cfg) for z in reversed(zs)][::-1]
        _tail_table.cache_clear()
        again = [theta(eq, z, cfg) for z in zs]
        assert forward == reverse == again


class TestBlockSize:
    """The block size sets memory and work only: the trend screen runs over fixed
    spans anchored at zeta0, so every block gives the same verdict."""

    @pytest.mark.parametrize("r_text, alpha", [
        ("0.5*pow(z, 0.6666666666666666)", RationalExponent(1, 3)),  # terms 8/z^2: poly_tail
        ("z", RationalExponent(1, 1)),                               # terms 1/z: max_terms
    ])
    def test_same_verdict_for_every_block(self, r_text, alpha):
        eq = make_eq(r_text, alpha)
        results = {block: [theta(eq, z, TailConfig(tol_abs=1e-10, block=block))
                           for z in (1, 10, 1000, 300_000)]
                   for block in (64, 1000, 65536)}
        want = results[65536]
        for got in results.values():
            for g, w in zip(got, want):
                assert (g.method, g.truncation_index, g.certified) == \
                       (w.method, w.truncation_index, w.certified)
                assert abs(g.value - w.value) <= 1e-12 * w.value
        assert want[0].method == ("poly_tail" if r_text != "z" else "max_terms")
