"""Tests for the equation model, tail sums and form classification."""
import gc
import math
import pickle
import re
import weakref
from dataclasses import replace

import mpmath
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
    classify_form,
    example_equation,
    theta,
    theta_extended,
    validate,
)
from oscdelay.equation import (BLOCK, MAX_TERMS, POLY_MIN_EXPONENT, ValidationReport, Violation,
                               _fused_power, _geometric_ratio, _inv_r_alpha, _suffix_sums, _table,
                               _tail_table, _TailTable, theta_window)
from oscdelay.errors import DivisionByZero, DomainError, NonConvergentError, OscDelayError, StageError


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

    @pytest.mark.parametrize("zeta0, sigma", [(2 ** 52 + 1, 0), (-2 ** 52 - 1, 0), (1, 2 ** 52 + 1)])
    def test_indices_past_exact_floats_rejected(self, zeta0, sigma):
        # past 2^53, float indices repeat: the trend screen would see no decrease
        with pytest.raises(ValueError, match=r"at most 2\^52"):
            make_eq("z^2", RationalExponent(1, 1), zeta0=zeta0, sigma=sigma)

    def test_indices_within_exact_floats_still_sum(self):
        eq = make_eq("z^2", RationalExponent(1, 1), zeta0=10 ** 15, sigma=2 ** 52)
        assert theta(eq, eq.zeta0).value == 1.0000000000000003e-15

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


class TestInfiniteR:
    """A term the tail pass sums needs a finite r there, as validate's H1 does, and a
    block of terms that all underflow to 0.0 ends the pass uncertified."""

    def test_infinite_r_at_the_start_is_domain_error(self):
        # r(5) = 10^500 is inf, so every term is 0; validate reports H1 at 5
        eq = make_eq("pow(10, z*100)", RationalExponent(1, 3), zeta0=5)
        assert validate(eq, 10).violations[0].index == 5
        with pytest.raises(DomainError, match=r"r\(5\) is not finite"):
            theta(eq, 5)
        with pytest.raises(DomainError, match=r"r\(5\) is not finite"):
            classify_form(eq)

    def test_infinite_r_past_the_stop_is_not_judged(self):
        # 2^(z/3) is inf from z = 3072 on, inside the first block, after the stop
        eq = make_eq("2^(z/3)", RationalExponent(1, 3))
        head = theta(eq, 1)
        assert head.certified and head.truncation_index < 100
        assert theta(eq, 4000).value == 0.0

    def test_underflowed_block_ends_the_pass(self):
        # every term 1e200^(-3) = 1e-600 is 0.0; the true terms are constant, so
        # the series diverges and the pass must not certify it
        eq = make_eq("1e200", RationalExponent(1, 3), sigma=1)
        res = theta(eq, 1)
        assert (res.value, res.truncation_index, res.tail_bound, res.certified, res.method) == \
               (0.0, BLOCK, None, False, "underflow")
        assert theta(eq, 3 * BLOCK).value == 0.0
        assert classify_form(eq) is FormClass.INCONCLUSIVE

    def test_infinite_r_in_a_partial_sum_is_domain_error(self):
        eq = make_eq("pow(10, z*100)", RationalExponent(1, 3), zeta0=1)
        with pytest.raises(DomainError, match="index 4"):
            R_partial(eq, 6)


class TestTheta:
    def test_example2_closed_form(self):
        assert theta(example_equation(2), 3).value == pytest.approx(0.5, abs=1e-12)

    def test_example3_closed_form(self):
        assert theta(example_equation(3), 4).value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n, exact", [(2, lambda z: 1 / (z - 1)), (3, lambda z: 1 / z)])
    def test_numeric_sum_under_a_closed_form_is_the_precise_one(self, n, exact):
        # both published theta telescope; the table under them is the one full pass
        eq = example_equation(n)
        for z in range(eq.zeta0, 201):
            assert abs(_table(eq).lookup(z)[0].value - exact(z)) <= 1e-12

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
            theta_cf=Sequence.from_expression("42"),
        )
        with pytest.raises(StageError):
            theta(eq, 1)

    def test_theta_recurrence(self):
        # theta(z) - theta(z+1) = r(z)^(-1/alpha)
        for n in (1, 2, 3):
            eq = example_equation(n)
            for z in range(eq.zeta0, eq.zeta0 + 30):
                lhs = theta(eq, z).value - theta(eq, z + 1).value
                rhs = eq.r(z) ** (-eq.alpha.den / eq.alpha.num)
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
        want = theta(eq, eq.zeta0).value + eq.r(0) ** (-eq.alpha.den / eq.alpha.num)
        assert ext.value == pytest.approx(want, rel=1e-12)

    def test_extension_needs_positive_r(self):
        eq = example_equation(2)  # r(1) = 0
        with pytest.raises(DomainError):
            theta_extended(eq, 1)

    def test_extension_overflowing_term_is_domain_error(self):
        # r(-2)^(-3) = 10^600 overflows: a DomainError naming the index, not OverflowError
        eq = make_eq("pow(10, z*100)", RationalExponent(1, 3), zeta0=5)
        with pytest.raises(DomainError, match="index -2"):
            theta_extended(eq, -2)


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
        assert classify_form(eq) in (
            FormClass.INCONCLUSIVE,
            FormClass.NON_CANONICAL,
        )


class TestValidate:
    def test_example1_ok(self):
        report = validate(example_equation(1), 100)
        assert report.violations == ()

    def test_zero_q_flagged(self):
        eq = make_eq("1", RationalExponent(1, 1), q_text="0")
        report = validate(eq, 100)
        assert report.violations
        assert report.violations[0].hypothesis == "H2"

    def test_nan_table_entry_flagged(self):
        # a table's scalar call refuses a non-finite entry, as an expression's does
        eq = seq_eq("1", Sequence.from_table(1, [math.nan] * 3 + [1.0] * 300))
        assert validate(eq, 200).violations == (
            Violation("H2", 1, "q not evaluable: table[1..303] is not finite at index 1"),)

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


# 1/(z-5)+10 as a table: the pole is an inf entry, which the column holds and the scalar call refuses
POLE_TABLE = Sequence.from_table(1, [math.inf if z == 5 else 1.0 / (z - 5) + 10.0 for z in range(1, 21)])


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
        (seq_eq(POLE_TABLE, "1"), 20),
        (seq_eq(Sequence.from_table(3, [1.0] * 30), "1"), 20),     # table below its domain start
        (seq_eq("z-10", "1-z", zeta0=0), 20),                      # H1 and H2 offenders
        # zero but for the last bit: numpy's array pow and the scalar pow disagree in
        # sign at some indices, and the per-index loop decides
        (seq_eq("1", "(z+75)^(4/3) - (z+75)^(2/3)*(z+75)^(2/3)"), 20),
        (example_equation(1), 200),
        (example_equation(3), 20000),
        (seq_eq(Sequence.from_table(1, [1.0] * 4 + [math.nan] + [1.0] * 20), "1"), 20),
        (seq_eq("1", Sequence.from_table(1, [1.0] * 4 + [-math.inf] + [1.0] * 20)), 20),
        # the NaN entries are flagged on the column, and the scalar call refuses them
        (seq_eq("1", Sequence.from_table(1, [math.nan] * 3 + [1.0] * 5 + [-1.0] * 20)), 20),
    ])
    def test_same_report_as_loop(self, eq, horizon):
        assert validate(eq, horizon) == validate_loop(eq, horizon)


class TestDivisionByZero:
    """A zero denominator is a domain error: an H1 violation, not a crash."""

    @pytest.mark.parametrize("r, detail", [
        ("1/(z-5)+10", "division by zero"),
        (POLE_TABLE, "table[1..20] is not finite at index 5"),
    ], ids=["fallback", "columnar"])
    def test_validate_reports_h1_at_pole(self, r, detail):
        report = validate(seq_eq(r, "1"), 20)
        assert report.violations == (Violation("H1", 5, f"r not evaluable: {detail}"),)

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


class TestGeometricRatio:
    """The one ratio certificate the tail sums and the divergence probe share."""

    @pytest.mark.parametrize("terms, rho", [
        ([2.0 ** -s for s in range(1, 10)], 0.5),           # nine terms: a full window
        ([2.0 ** -s for s in range(1, 9)], None),           # eight: too few
        ([0.0] * 5 + [2.0 ** -s for s in range(1, 9)], None),  # zeros are not terms
        ([1.0, 0.5, 0.0], 0.5),                             # underflowed after a decaying run
        ([1.0, 0.0], None),
        ([s ** -4.0 for s in range(1, 30)], None),          # rising ratios: polynomial
        ([0.995 ** s for s in range(1, 10)], None),         # ratio above RATIO_MAX
    ])
    def test_certificate(self, terms, rho):
        got = _geometric_ratio(np.array(terms))
        assert got == (None if rho is None else pytest.approx(rho, rel=1e-12))


class TestTableSharing:
    def test_equal_equations_hash_equal_and_share_one_table(self):
        a, b = make_eq("2^z", RationalExponent(1, 1)), make_eq("2^z", RationalExponent(1, 1))
        assert a is not b and a.r is not b.r
        assert a == b and hash(a) == hash(b) and hash(a.r) == hash(b.r)
        assert _table(a) is _table(b)

    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from([("2^z", RationalExponent(1, 1), "2^(1-z)"),
                                 ("(z+5)*(z+6)", RationalExponent(1, 1), "1/(z+5)")]),
           zeta0=st.integers(0, 3), closed=st.booleans(),
           variants=st.lists(st.tuples(st.sampled_from(("1", "z", "3*2^z")),
                                       st.sampled_from(((DelayForm.MINUS_SIGMA, 0),
                                                        (DelayForm.MINUS_SIGMA, 2),
                                                        (DelayForm.MINUS_SIGMA_PLUS_ONE, 1)))),
                             min_size=2, max_size=2, unique=True))
    def test_table_depends_only_on_r_alpha_zeta0(self, case, zeta0, closed, variants):
        r_text, alpha, closed_text = case
        cf = Sequence.from_expression(closed_text) if closed else None
        a, b = (make_eq(r_text, alpha, zeta0=zeta0, q_text=q, sigma=sigma, theta_cf=cf, form=form)
                for q, (form, sigma) in variants)
        assert a != b
        assert _table(a) is _table(b)
        # at zeta0, below it and past the scanned range
        for z in (zeta0, zeta0 - 3, _table(a).end + 10):
            assert theta(a, z) == theta(b, z)
            assert theta_extended(a, z) == theta_extended(b, z)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_presence_does_not_split_the_table(self, n):
        with_cf = example_equation(n)
        without = replace(with_cf, theta_closed_form=None)
        assert _table(with_cf) is _table(without)

    def test_equal_equation_compared_with_the_store_once(self, monkeypatch):
        a, b = make_eq("3^z", RationalExponent(1, 1)), make_eq("3^z", RationalExponent(1, 1))
        theta(a, 1)
        calls = []
        original = HalfLinearEquation.__eq__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(HalfLinearEquation, "__eq__", counting)
        for z in range(1, 201):
            theta(b, z)
        assert len(calls) <= 1
        assert _table(b) is _table(a)

    def test_table_stays_out_of_equality_and_pickles(self):
        eq = make_eq("2^z", RationalExponent(1, 1), zeta0=2)
        want = theta(eq, 5)
        assert "_table" in vars(eq)
        copy = pickle.loads(pickle.dumps(eq))
        assert copy == eq and hash(copy) == hash(eq)
        assert "_table" not in vars(copy)
        assert theta(copy, 5) == want

    def test_table_holds_no_reference_to_its_equation(self):
        # a reference cycle would keep every table until the cycle collector runs
        eq = make_eq("5^z", RationalExponent(1, 1))
        theta(eq, 1)
        _tail_table.cache_clear()
        ref = weakref.ref(eq)
        gc.disable()
        try:
            del eq
            assert ref() is None
        finally:
            gc.enable()


class TestClosedFormCertification:
    """A closed form is certified only when a numeric check actually ran."""

    def test_unverifiable_closed_form_not_certified(self):
        # terms s^(-1.01): the tail pass stops at max_terms, so nothing can check the form
        eq = make_eq("z^(101/100)", RationalExponent(1, 1),
                     theta_cf=Sequence.from_expression("12345"))
        msg = re.escape("registered closed form for theta(1) cannot be checked: "
                        "the numeric tail sum ended with method max_terms")
        with pytest.raises(StageError, match=msg):
            theta(eq, 1)
        with pytest.raises(StageError, match=msg):
            classify_form(eq)

    def test_closed_form_below_partial_sum_rejected(self):
        # a form below the partial sum is refused too: the table that cannot confirm it decides nothing
        eq = make_eq("z^(101/100)", RationalExponent(1, 1),
                     theta_cf=Sequence.from_expression("1"))
        with pytest.raises(StageError, match="cannot be checked"):
            theta(eq, 1)

    def test_exact_form_on_a_max_terms_tail_rejected(self):
        # terms 1/sqrt(z) - 1/sqrt(z+1) telescope to 1/sqrt(z), but decay like z^(-3/2) too
        # slowly to reach TAIL_TOL within MAX_TERMS
        eq = make_eq("(1/z^(1/2)-1/(z+1)^(1/2))^(-1)", RationalExponent(1, 1),
                     theta_cf=Sequence.from_expression("1/z^(1/2)"))
        assert _table(eq).lookup(1)[0].method == "max_terms"
        with pytest.raises(StageError, match=r"theta\(1\) cannot be checked: .* method max_terms$"):
            theta(eq, 1)

    def test_band_is_one_part_in_1e9(self):
        # the README equation; its numeric theta(1) is within 1e-12 of 1
        def eq(form):
            return make_eq("(z*(z+1))^(5/3)", RationalExponent(5, 3), sigma=2,
                           form=DelayForm.MINUS_SIGMA_PLUS_ONE, theta_cf=Sequence.from_expression(form))
        assert theta(eq("1/z + 5e-10"), 1).method == "closed_form"
        with pytest.raises(StageError, match=r"theta\(1\) = 1.000000002 lies outside \[0.99999999"):
            theta(eq("1/z + 2e-9"), 1)

    def test_past_truncation_checked_against_tail_bound(self):
        # 2^(-z) is truncated near 30; theta(100), about 2^-99, is far from the form's 0.5
        eq = make_eq("2^(z/3)", RationalExponent(1, 3),
                     theta_cf=Sequence.from_expression("0.5"))
        with pytest.raises(StageError):
            theta(eq, 100)
        good = theta(example_equation(1), 100)
        assert good.certified and good.method == "closed_form"


@settings(max_examples=12, deadline=None)
@given(st.floats(0.0, 3.0, exclude_min=True),
       st.sampled_from([RationalExponent(1, 3), RationalExponent(1, 1), RationalExponent(5, 3)]),
       st.integers(1, 5))
def test_telescoping_closed_form_passes_the_band(c, alpha, zeta0):
    """r^(-1/alpha) = 1/(z+c) - 1/(z+c+1) sums to 1/(z+c): an exact form is certified
    at every index of [zeta0, zeta0 + 200], so the band is wide enough."""
    eq = make_eq(f"((z+{c!r})*(z+{c!r}+1))^({alpha})", alpha, zeta0=zeta0,
                 theta_cf=Sequence.from_expression(f"1/(z+{c!r})"))
    for z in range(zeta0, zeta0 + 201):
        res = theta(eq, z)
        assert res.certified and res.method == "closed_form"
        assert res.value == eq.theta_closed_form(z)


@st.composite
def tail_cases(draw):
    """(equation, 41 consecutive indices) with terms r^(-1/alpha) decaying like
    z^(-p) or b^(-z), every r in the window a finite float.  A power-law window
    may straddle the join of the first and second, or second and third, blocks."""
    alpha = draw(st.sampled_from([RationalExponent(1, 3), RationalExponent(1, 1),
                                  RationalExponent(5, 3), RationalExponent(3, 1)]))
    c = draw(st.floats(0.5, 4.0))
    zeta0 = draw(st.integers(1, 5))
    if draw(st.booleans()):
        p = draw(st.floats(2.0, 4.0))
        r_text = f"{c!r}*pow(z, {p * alpha.value!r})"
        join = draw(st.sampled_from([None, 1, 2]))
        if join is not None:
            start = zeta0 + join * BLOCK - draw(st.integers(1, 40))
            return make_eq(r_text, alpha, zeta0=zeta0), list(range(start, start + 41))
        last = 300
    else:
        base = draw(st.floats(1.2, 4.0)) ** alpha.value
        r_text, last = f"{c!r}*pow({base!r}, z)", min(300, int(250 / math.log10(base)))
    start = draw(st.integers(zeta0, last - 40))
    return make_eq(r_text, alpha, zeta0=zeta0), list(range(start, start + 41))


class TestThetaProperties:
    """Invariants of the tail sums over random power-law and geometric r."""

    @settings(max_examples=30, deadline=None)
    @given(tail_cases())
    # a power law whose ratios passed the geometric test at T = 189 (tolerance 1e-10,
    # blocks of 64): theta rose at 257
    @example((make_eq("2.0*pow(z, 1.3333333333333333)", RationalExponent(1, 3)),
              list(range(230, 271))))
    # terms 8/z^2: the minima of 64-term blocks fell by less than TREND_TOL past 128 000
    @example((make_eq("0.5*pow(z, 0.6666666666666666)", RationalExponent(1, 3)),
              list(range(200, 241))))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_decreasing_and_recurrence(self, case):
        eq, zs = case
        th = {z: theta(eq, z).value for z in zs}
        for z in zs[:-1]:
            assert th[z + 1] < th[z]
            # theta(z) - theta(z+1) = r(z)^(-1/alpha)
            assert abs(th[z] - th[z + 1] - eq.r(z) ** (-eq.alpha.den / eq.alpha.num)) <= 1e-12 * th[z]

    @settings(max_examples=30, deadline=None)
    @given(tail_cases())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_partial_plus_tail_constant(self, case):
        eq, zs = case
        total = theta(eq, eq.zeta0).value
        for z in zs:
            assert abs(R_partial(eq, z) + theta(eq, z).value - total) <= 1e-12 * total

    @settings(max_examples=20, deadline=None)
    @given(tail_cases())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_call_order_purity(self, case):
        eq, zs = case

        def fresh():
            # an empty store and an equal equation that holds no table: a new table
            _tail_table.cache_clear()
            return replace(eq)

        first = fresh()
        forward = [theta(first, z) for z in zs]
        second = fresh()
        reverse = [theta(second, z) for z in reversed(zs)][::-1]
        third = fresh()
        again = [theta(third, z) for z in zs]
        assert forward == reverse == again


class TestBlockSize:
    """Tails summed over many blocks: the trend screen compares the minima of
    consecutive blocks, and terms that keep falling (8/z^2 converges, 1/z does
    not) are summed to MAX_TERMS rather than judged divergent.  Windows across
    block joins are drawn by tail_cases."""

    @pytest.mark.parametrize("r_text, alpha", [
        ("0.5*pow(z, 0.6666666666666666)", RationalExponent(1, 3)),  # terms 8/z^2
        ("z", RationalExponent(1, 1)),                               # terms 1/z
    ])
    def test_same_verdict_for_every_block(self, r_text, alpha):
        eq = make_eq(r_text, alpha)
        for z in (1, 10, 1000, 300_000):
            got = theta(eq, z)
            assert (got.method, got.truncation_index, got.certified) == \
                   ("max_terms", MAX_TERMS, False)
            want = math.fsum(_inv_r_alpha(eq.r, eq.alpha, np.arange(z, MAX_TERMS + 1, dtype=float)))
            assert abs(got.value - want) <= 1e-12 * want


class TestFloatRange:
    """A tail or partial sum past the float range is a DomainError naming the index,
    never a NaN or +inf value, and a finite theta keeps its bits."""

    def test_later_blocks_past_the_float_range(self):
        # every block sum fits, but the blocks after the first overflow together
        eq = make_eq("1e-308*z^1.01", RationalExponent(1, 1), sigma=1)
        with pytest.raises(DomainError, match=r"theta\(1\) exceeds the float range"):
            theta(eq, 1)
        with pytest.raises(DomainError, match=r"theta\(1\) exceeds the float range"):
            classify_form(eq)

    def test_suffix_sum_past_the_float_range(self):
        # theta(1) = 10^308 / 0.6 * 10/9 overflows; theta(2) is ten times smaller
        eq = make_eq("0.6*10^(z-309)", RationalExponent(1, 1), sigma=1,
                     form=DelayForm.MINUS_SIGMA_PLUS_ONE)
        with pytest.raises(DomainError, match=r"theta\(1\) exceeds the float range"):
            theta(eq, 1)
        assert theta(eq, 2).value == pytest.approx(1e307 / 0.6 * 10 / 9, rel=1e-12)

    def test_extension_past_the_float_range(self):
        # theta(2) and the gap term r(1)^(-1) both fit; their sum does not
        eq = make_eq("0.59*10^(z-309)", RationalExponent(1, 1), zeta0=2, sigma=1)
        assert math.isfinite(theta(eq, 2).value)
        with pytest.raises(DomainError, match=r"theta\(1\) exceeds the float range"):
            theta_extended(eq, 1)
        with pytest.raises(DomainError, match=r"theta\(1\) exceeds the float range"):
            theta(eq, 1)

    def test_partial_sum_past_the_float_range(self):
        eq = make_eq("1e-308", RationalExponent(1, 1), sigma=1)
        assert R_partial(eq, 2) == 1e308
        with pytest.raises(DomainError, match=r"\[1, 3\) exceeds the float range"):
            R_partial(eq, 3)

    # float.hex of the numeric theta, from the tail table each equation reads
    PINNED = {
        "poly": [(1, "0x1.9dd0ed33308a7p-1"), (2, "0x1.c05f7b95c960bp-2"),
                 (200, "0x1.471bdd486db15p-8"), (70000, "0x1.df58bcdd7b4b2p-17"),
                 (1_500_000, "0x1.65e9f2960aa17p-21")],
        1: [(1, "0x1.0000000000000p+0"), (50, "0x1.ffffffffffff7p-50"),
            (200, "0x1.fffffffffffdap-200")],
        2: [(2, "0x1.0000000000000p+0"), (50, "0x1.4e5e0a72f0539p-6"),
            (200, "0x1.49539e3b2d067p-8")],
        3: [(1, "0x1.0000000000000p+0"), (50, "0x1.47ae147ae147bp-6"),
            (200, "0x1.47ae147ae147bp-8")],
    }

    @pytest.mark.parametrize("which", ["poly", 1, 2, 3])
    def test_finite_theta_keeps_its_bits(self, which):
        if which == "poly":
            eq = make_eq("(z*(z+1.7))^(5/3)", RationalExponent(5, 3), sigma=2,
                         q_text="1.3*(z^2-1)*z^(2/3)", form=DelayForm.MINUS_SIGMA_PLUS_ONE)
        else:
            eq = example_equation(which)
        got = [(z, _table(eq).lookup(z)[0].value.hex()) for z, _ in self.PINNED[which]]
        assert got == self.PINNED[which]


def two_step(r, alpha, s):
    """r^(-1/alpha) as r's column and then a second power, NaN where r is infinite:
    the reference the fused power must reproduce, each error included."""
    rv = r.eval_array(s)
    if not np.all(rv > 0):
        i = int(np.argmax(~(rv > 0)))
        if np.isnan(rv[i]):
            r(int(s[i]))
        raise DomainError(f"r({int(s[i])}) is not positive")
    with np.errstate(over="ignore"):
        t = rv ** (-alpha.den / alpha.num)
    t[np.isinf(rv)] = np.nan
    return t


def outcome(call):
    """(exception type, message) of call, or its value."""
    try:
        return call()
    except (DomainError, NonConvergentError) as exc:
        return type(exc), str(exc)


ALPHAS = (RationalExponent(1, 3), RationalExponent(1, 1), RationalExponent(5, 3),
          RationalExponent(3, 1))


class TestFusedPower:
    """r = B^(a/b) with a literal ratio: each term is the one power B^e where B > 0
    and r is surely a normal float, and the two-step column's everywhere else."""

    @settings(max_examples=60, deadline=None)
    @given(c=st.tuples(st.floats(0.1, 10), st.floats(0, 10), st.floats(0, 10)),
           a=st.integers(-7, 7).filter(bool), b=st.integers(1, 5),
           alpha=st.sampled_from(ALPHAS), lo=st.integers(1, 10 ** 6))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_agrees_with_the_two_step_column(self, c, a, b, alpha, lo):
        r = Sequence.from_expression(f"({c[0]!r}+{c[1]!r}*z+{c[2]!r}*z^2)^({a}/{b})")  # -1/3 is (-1)/3
        assert _fused_power(r, alpha) is not None
        s = np.arange(lo, lo + 64, dtype=float)
        got, want = _inv_r_alpha(r, alpha, s), two_step(r, alpha, s)
        # each side rounds its exponents to doubles, which moves a term t by up to
        # |ln t| * 2^-53 relative apiece, and each power adds up to an ulp
        assert np.all(np.abs(got - want) <= 2.0 ** -52 * (1.5 * np.abs(np.log(want)) + 6) * want)

    @pytest.mark.parametrize("r_text, alpha", [
        ("(z-3)^(2/3)", RationalExponent(1, 1)),      # a negative base under an even ratio
        ("(z-3.5)^(2/3)", RationalExponent(1, 3)),    # the same, where B^e = B^-2 is positive
        ("(z-2)^(-1)", RationalExponent(1, 1)),       # a pole at 2
        ("(1e300*z)^(5/3)", RationalExponent(5, 3)),  # r overflows
        ("(1e184*z)^(5/3)", RationalExponent(5, 3)),  # r overflows from 7 on, terms at 1-3 in the band
        ("(1e-300*z)^(5/3)", RationalExponent(5, 3)),  # r underflows to 0
        ("(1e-40*z)^3", RationalExponent(1, 3)),      # r is normal, t = r^-3 overflows
    ], ids=["negative-even", "negative-even-integer-e", "pole", "r-overflows", "r-overflows-later", "r-underflows",
            "t-overflows"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edges_behave_as_the_two_step_column(self, r_text, alpha, monkeypatch):
        from oscdelay import equation

        r = Sequence.from_expression(r_text)
        assert _fused_power(r, alpha) is not None
        for lo in (1, 2):
            s = np.arange(lo, lo + 12, dtype=float)
            got, want = outcome(lambda: _inv_r_alpha(r, alpha, s)), outcome(lambda: two_step(r, alpha, s))
            if isinstance(want, tuple):
                assert got == want
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14)  # NaN and inf where want has them
        # theta's error, or its value, as the two-step column gives it
        results = []
        for inv in (equation._inv_r_alpha, two_step):
            monkeypatch.setattr(equation, "_inv_r_alpha", inv)
            _tail_table.cache_clear()
            results.append([outcome(lambda: theta(make_eq(r_text, alpha, zeta0=z0), z0).value)
                            for z0 in (1, 2)])
        assert results[0] == results[1]
        assert all(isinstance(res, tuple) for res in results[0])

    def test_band_edges_at_alpha_one_third(self):
        # 2.0 ** (1021 * 3) overflows; the edges clamp to the normal floats
        _, e, lo, hi = _fused_power(Sequence.from_expression("(z*(z-1))^(1/3)"), RationalExponent(1, 3))
        assert (e, lo, hi) == (-1.0, 2.0 ** -1022, 2.0 ** 1023)

    @pytest.mark.parametrize("r_text, e", [("(z+1)^(-1/1)", 1.0), ("(z+1)^(1/-1)", 1.0),
                                           ("(z+1)^(-(1/1))", 1.0), ("(z+1)^(-2/3)", 2 / 3)])
    def test_signed_literal_ratio_fuses(self, r_text, e):
        base, got, _, _ = _fused_power(Sequence.from_expression(r_text), RationalExponent(1, 1))
        assert (base.ast, got) == (Sequence.from_expression("z+1").ast, e)

    @pytest.mark.parametrize("r_text", ["2^(z/3)", "z^2+1", "(z^2)^0", "pow(z, 2)"])
    def test_other_r_keep_the_two_step_column(self, r_text):
        assert _fused_power(Sequence.from_expression(r_text), RationalExponent(1, 1)) is None


class TestWidePowerFit:
    """At a large zeta0 the last FIT_WINDOW terms span too little of ln s to fit
    their exponent; the fit reads [stop, 2 stop] instead, and theta(zeta0) meets
    the exact sum."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("zeta0", [10 ** 8, 10 ** 10, 10 ** 12, 10 ** 15])
    def test_pure_powers_meet_the_hurwitz_zeta(self, p, zeta0):
        got = theta(make_eq(f"z^{p}", RationalExponent(1, 1), zeta0=zeta0), zeta0)
        with mpmath.workdps(40):
            want = mpmath.zeta(p, zeta0)
            assert got.method == "poly_tail"
            assert abs(got.value - want) <= 1e-14 * want

    @pytest.mark.parametrize("c", ["1", "1.7"])
    @pytest.mark.parametrize("zeta0", [10 ** 12, 10 ** 15])
    def test_benchmark_r_meets_its_exact_sum(self, c, zeta0):
        got = theta(make_eq(f"(z*(z+{c}))^(5/3)", RationalExponent(5, 3), zeta0=zeta0), zeta0)
        with mpmath.workdps(40):
            # sum_{s>=z} 1/(s(s+c)) = (psi(z+c) - psi(z))/c, which telescopes to 1/z at c = 1
            want = (mpmath.digamma(zeta0 + mpmath.mpf(c)) - mpmath.digamma(zeta0)) / mpmath.mpf(c)
            assert got.method == "poly_tail"
            assert abs(got.value - want) <= 1e-12 * want

    def test_unevaluable_wide_sample_keeps_the_trailing_window(self, monkeypatch):
        # r turns negative at 1.5e8, inside [stop, 2 stop]: the fit reads the last terms
        from oscdelay import equation

        eq = make_eq("z^5*(1.5e8-z)", RationalExponent(1, 1), zeta0=10 ** 8)
        got = theta(eq, eq.zeta0)
        monkeypatch.setattr(equation, "WIDE_FIT_SPAN", 0.0)
        _tail_table.cache_clear()
        assert theta(replace(eq), eq.zeta0) == got


def table_outcome(r_text, alpha, zeta0):
    """(method, certified, tail_bound) of a new table's theta(zeta0), or (type, message) of its error."""
    try:
        head = _TailTable(Sequence.from_expression(r_text), alpha, zeta0).lookup(zeta0)[0]
    except (DomainError, NonConvergentError) as exc:
        return type(exc), str(exc)
    return head.method, head.certified, head.tail_bound


@st.composite
def power_law_r(draw):
    """A product or quotient of up to three (c0 + c1 z + c2 z^2)^(+-a/b)."""
    factors = draw(st.lists(st.tuples(st.floats(0.1, 10), st.floats(0, 10), st.floats(0, 10),
                                      st.integers(-7, 7).filter(bool), st.integers(1, 3),
                                      st.sampled_from("*/")), min_size=1, max_size=3))
    return "1" + "".join(f"{op}({c0!r}+{c1!r}*z+{c2!r}*z^2)^({a}/{b})" for c0, c1, c2, a, b, op in factors)


class TestExpansionTail:
    """Past the first block, r's expansion in 1/s sums the tail in place of the
    other fifteen blocks: the table ends where the block-by-block pass ends, with
    the same method, flag and bound, unless that pass calls divergent a tail whose
    expansion proves it convergent; and theta meets the exact sum."""

    @settings(max_examples=40, deadline=None)
    @given(r_text=power_law_r(), alpha=st.sampled_from(ALPHAS), zeta0=st.integers(1, 10 ** 4))
    # a base with roots at 70 000 and 75 000, past the first block: r < 0 there
    @example(r_text="(5250000000.0+-145000.0*z+1.0*z^2)^(1/1)*(0.1+0.0*z+1.0*z^2)^(1/1)",
             alpha=RationalExponent(1, 1), zeta0=1)
    # r overflows from about 4.2e5 on, between the first block and zeta0 + MAX_TERMS
    @example(r_text="(1e297+0.0*z+1e297*z^2)^(1/1)", alpha=RationalExponent(1, 1), zeta0=1)
    # terms 1e-4 z^-1.5, q in (1, 2): at most TAIL_TOL from about 2.2e5 on
    @example(r_text="(0.0+464.0*z+0.0*z^2)^(3/2)", alpha=RationalExponent(1, 1), zeta0=1)
    # q = 1: divergent
    @example(r_text="(0.5+1.0*z+0.0*z^2)^(1/1)", alpha=RationalExponent(1, 1), zeta0=1)
    # terms at most TAIL_TOL from the start of the first block
    @example(r_text="(1.0+0.0*z+1e13*z^2)^(1/1)", alpha=RationalExponent(1, 1), zeta0=1)
    @example(r_text="(1.0+1.7*z+1.0*z^2)^(5/3)", alpha=RationalExponent(5, 3), zeta0=1)
    # terms 1e-13 (1/s + 20000/s^2): a fit near s = 45 reads 2, but q = 1 and the sum
    # diverges, so the expansion gives no remainder and the fitted one stays
    @example(r_text="1e13*(0.0+0.0*z+1.0*z^2)^(1/1)/(20000.0+1.0*z+0.0*z^2)^(1/1)",
             alpha=RationalExponent(1, 1), zeta0=1)
    # terms rising to about z = 100, then 4.7e21 z^-6: the second block's minimum is
    # above the first's, so the block pass calls the tail divergent
    @example(r_text="1/(1.0+0.0*z+1.0*z^2)^(5/1)/(1.0+5.0*z+0.0625*z^2)^(-6/1)",
             alpha=RationalExponent(1, 3), zeta0=1)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_same_ending_as_the_block_pass(self, r_text, alpha, zeta0):
        from unittest import mock

        from oscdelay import expr

        new = table_outcome(r_text, alpha, zeta0)
        with mock.patch.object(expr, "expansion", lambda ast, k: None):
            old = table_outcome(r_text, alpha, zeta0)
        if old[0] is NonConvergentError and new[0] is not NonConvergentError:
            # the one departure: the trend screen's divergence, where the term's
            # expansion proves an exponent above POLY_MIN_EXPONENT
            (pn, pd), _ = _TailTable(Sequence.from_expression(r_text), alpha, zeta0)._series
            assert -pn / pd > POLY_MIN_EXPONENT
        else:
            assert new == old

    @pytest.mark.parametrize("r_text, alpha, zeta0, end", [
        ("(z*(z+1.7))^(5/3)", RationalExponent(5, 3), 1, BLOCK),
        ("(1.0+0.0*z+1e13*z^2)^(1/1)", RationalExponent(1, 1), 1, BLOCK),
        ("(0.0+464.0*z+0.0*z^2)^(3/2)", RationalExponent(1, 1), 1, BLOCK),
        ("(1e297+0.0*z+1e297*z^2)^(1/1)", RationalExponent(1, 1), 1, BLOCK + 1),  # not past 4.2e5
        ("(0.5+1.0*z+0.0*z^2)^(1/1)", RationalExponent(1, 1), 1, MAX_TERMS),
        # block minima 1e-3 apart at most: the block-by-block pass called this convergent
        # tail divergent (NonConvergentError) at its second block
        ("0.99*z^(3/2)", RationalExponent(1, 1), 10 ** 8, 10 ** 8 + BLOCK - 1),
    ])
    def test_table_ends_after_the_first_block(self, r_text, alpha, zeta0, end):
        got = _TailTable(Sequence.from_expression(r_text), alpha, zeta0).lookup(zeta0)[0]
        assert got.truncation_index == end

    def test_expansion_keeps_the_trend_screen_off_a_convergent_tail(self):
        # terms 2 s^(-3/2): near 10^8 one block moves the minimum by 0.098 %, below
        # TREND_TOL, and the term at zeta0 + MAX_TERMS is above TAIL_TOL, so the pass
        # sums every block; the expansion proves the exponent, so no block is divergent
        eq = make_eq("0.5*z^(3/2)", RationalExponent(1, 1), zeta0=10 ** 8)
        assert classify_form(eq) is FormClass.INCONCLUSIVE
        assert theta(eq, eq.zeta0).method == "max_terms"

    FAMILY = [("(z*(z+{c}))^(5/3)", RationalExponent(5, 3), 1), ("(z*(z+{c}))^(1/3)", RationalExponent(1, 3), 1),
              ("(z*(z+{c}))^2", RationalExponent(1, 1), 2), ("(z*(z+{c}))^6", RationalExponent(3, 1), 2)]

    @pytest.mark.parametrize("r_text, alpha, order", FAMILY)
    @pytest.mark.parametrize("c", ["0.5", "1.7", "4"])
    @pytest.mark.parametrize("zeta0", [1, 3])
    def test_meets_the_exact_sum(self, r_text, alpha, order, c, zeta0):
        eq = make_eq(r_text.format(c=c), alpha, zeta0=zeta0)
        with mpmath.workdps(40):
            cc = mpmath.mpf(c)

            def exact(z):
                # 1/(s(s+c)) and its square, by partial fractions: digamma and trigamma
                first = (mpmath.digamma(z + cc) - mpmath.digamma(z)) / cc
                if order == 1:
                    return first
                return (mpmath.polygamma(1, z) + mpmath.polygamma(1, z + cc) - 2 * first) / cc ** 2
            for z in (zeta0, 200, 20_000, 70_000):
                got, want = theta(eq, z), exact(mpmath.mpf(z))
                assert got.method == "poly_tail"
                assert abs(got.value - want) <= 1e-12 * want, z

    @pytest.mark.parametrize("p", [2, 3])
    def test_pure_powers_meet_the_hurwitz_zeta(self, p):
        eq = make_eq(f"z^{p}", RationalExponent(1, 1))
        with mpmath.workdps(40):
            for z in (1, 200, 20_000, 70_000):
                want = mpmath.zeta(p, z)
                assert abs(theta(eq, z).value - want) <= 1e-12 * want, z

    @pytest.mark.parametrize("c", ["0.5", "4"])
    def test_pow_with_a_literal_exponent_expands(self, c):
        # pow is a call, not ^, but its literal exponent gives the same expansion
        eq = make_eq(f"pow(z*(z+{c}), 2)", RationalExponent(1, 1))
        with mpmath.workdps(40):
            cc = mpmath.mpf(c)
            for z in (1, 200, 70_000):
                zz = mpmath.mpf(z)
                # 1/(s(s+c))^2 by partial fractions: Hurwitz zeta and digamma
                want = ((mpmath.zeta(2, zz) + mpmath.zeta(2, zz + cc)) / cc ** 2
                        - 2 * (mpmath.digamma(zz + cc) - mpmath.digamma(zz)) / cc ** 3)
                assert abs(theta(eq, z).value - want) <= 1e-12 * want, z


def window_outcome(call):
    """The hex of each value call gives, or the (type, message) of what it raises."""
    try:
        return [float(v).hex() for v in call()]
    except OscDelayError as exc:
        return type(exc), str(exc)


PLUS_ONE = DelayForm.MINUS_SIGMA_PLUS_ONE
WINDOW_EQUATIONS = {
    "bench": lambda c: make_eq(f"(z*(z+{c!r}))^(5/3)", RationalExponent(5, 3), sigma=2,
                               form=PLUS_ONE),
    "geometric": lambda c: make_eq(f"{c!r}*1.5^z", RationalExponent(1, 1), sigma=1),
    # no expansion (2^(-z)): terms about 1/(2 z^2) reach TAIL_TOL in the eleventh block,
    # so each scanned block has later blocks' sums and a power-law remainder
    "blocks": lambda c: make_eq("z^2*(2+2^(-z))", RationalExponent(1, 1)),
    1: lambda c: example_equation(1, c),
    2: lambda c: example_equation(2),
    3: lambda c: example_equation(3),
}


@st.composite
def theta_windows(draw):
    """(equation, lo, n): a window at the start of the table, across the join of its
    first two blocks, or past the scanned range."""
    eq = WINDOW_EQUATIONS[draw(st.sampled_from(list(WINDOW_EQUATIONS)))](draw(st.floats(0.5, 4.0)))
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 300))
    where = draw(st.sampled_from(["start", "join", "past"]))
    if where == "start":
        lo = eq.zeta0 + draw(st.integers(0, 300))
    elif where == "join":
        lo = eq.zeta0 + BLOCK - draw(st.integers(1, 300))
    else:
        lo = _table(eq).end + 1 + draw(st.integers(0, 2 * BLOCK))
    return eq, lo, n


class TestThetaWindow:
    """theta over a window is one slice of the table per block: the values theta
    gives index by index, bit for bit, and where an index raises, the error the
    per-index calls raise first."""

    @settings(max_examples=60, deadline=None)
    @given(theta_windows())
    @example((example_equation(3), 1, 0))
    @example((example_equation(2), 2, 1))
    @example((example_equation(3), BLOCK - 10, 20))       # across the first join
    @example((example_equation(1), BLOCK + 5, 3))         # past the scanned range
    @example((WINDOW_EQUATIONS["bench"](1.7), 2 * BLOCK - 3, 7))
    @example((WINDOW_EQUATIONS["blocks"](1.0), 3 * BLOCK - 100, 300))  # across two joins
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_same_bits_as_theta_index_by_index(self, case):
        eq, lo, n = case
        want = window_outcome(lambda: [theta(eq, z).value for z in range(lo, lo + n)])
        assert isinstance(want, list) and len(want) == n
        got = theta_window(eq, lo, n)
        assert got.dtype == np.float64 and window_outcome(lambda: got) == want

    @pytest.mark.parametrize("r_text, alpha, closed, lo, n, first", [
        # a closed form leaving the band at 51, one with a pole at 60, one off everywhere
        ("(z*(z+1))^(5/3)", RationalExponent(5, 3), "1/z + 1e-6*2^(z-60)", 1, 200, "theta(51)"),
        ("(z*(z+1))^(5/3)", RationalExponent(5, 3), "1/z + 0/(z-60)", 1, 200, "division by zero"),
        ("(z*(z+1))^(5/3)", RationalExponent(5, 3), "2/z", 5, 20, "theta(5)"),
        # a closed form the table cannot check: terms 8/z^2 end at max_terms, and this
        # form lies within 7e-10 of their sum to 10^6 from 1000 on
        ("0.5*pow(z, 0.6666666666666666)", RationalExponent(1, 3), "8/(z-0.5) - 8/1000000.5",
         1000, 10, "theta(1000) cannot be checked"),
        # theta(1) past the float range: in its block's suffix sum, and where the suffix
        # sum (1.6e308) and the later blocks' (3.6e307) are finite but their sum is not
        ("0.6*10^(z-309)", RationalExponent(1, 1), None, 1, 5, "theta(1)"),
        ("6.7e-308*z^1.01", RationalExponent(1, 1), None, 1, 5, "theta(1)"),
        # a form whose distance to theta(2) = 1.9e307 passes the float range
        ("0.6*10^(z-309)", RationalExponent(1, 1), "-1.7e308", 2, 3, "theta(2)"),
        # r is not positive at 80 000, in the block after the scanned range
        ("z^2*(80000-z)", RationalExponent(1, 1), None, BLOCK - 6, 10, "r(80000)"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_same_error_at_the_same_first_index(self, r_text, alpha, closed, lo, n, first):
        eq = make_eq(r_text, alpha, sigma=1, form=PLUS_ONE,
                     theta_cf=closed and Sequence.from_expression(closed))
        want = window_outcome(lambda: [theta(eq, z).value for z in range(lo, lo + n)])
        assert isinstance(want, tuple) and first in want[1]
        assert window_outcome(lambda: theta_window(eq, lo, n)) == want
        if closed is None:  # the table's own window, which _theta_error reads
            assert window_outcome(lambda: _table(eq).window(lo, n)) == want
