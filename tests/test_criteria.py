"""Tests for the criterion evaluators and the shared divergence probe."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdelay import (
    DelayForm,
    HalfLinearEquation,
    RationalExponent,
    Sequence,
    crit_lem21,
    crit_thm21,
    crit_thm22a,
    crit_thm22b,
    crit_thm23,
    divergence_probe,
    evaluate_criterion,
    example_equation,
)
from oscdelay.criteria import (
    CANONICAL_SUM_Q,
    CRITERION_IDS,
    LEM21,
    THM21,
    THM22A,
    THM22B,
    THM23,
    ProbeStatus,
    VerdictStatus,
)
from oscdelay.equation import BLOCK, tail_shortfall, theta, theta_extended
from oscdelay.errors import DomainError, StageError
from oscdelay.transform import crit_canonical_sumq, to_canonical


def eq_with_q(q_text, r_text="2^(z/3)", alpha=(1, 3), zeta0=1, sigma=1):
    return HalfLinearEquation(
        r=Sequence.from_expression(r_text),
        q=Sequence.from_expression(q_text),
        alpha=RationalExponent(*alpha),
        sigma=sigma,
        delay_form=DelayForm.MINUS_SIGMA,
        zeta0=zeta0,
    )


class TestDivergenceProbe:
    def test_constant_terms_certified(self):
        probe = divergence_probe(np.ones(200))
        assert probe.status is ProbeStatus.CERTIFIED_DIVERGES
        assert probe.witness_floor is not None and probe.witness_floor > 0

    def test_geometric_terms_converge(self):
        probe = divergence_probe([2.0 ** -s for s in range(1, 120)])
        assert probe.status is ProbeStatus.CONVERGES_SUGGESTED
        assert probe.tail_bound is not None

    def test_harmonic_terms_suggest_divergence(self):
        probe = divergence_probe([1.0 / s for s in range(1, 100_001)])
        assert probe.status is ProbeStatus.DIVERGES_SUGGESTED
        assert probe.term_exponent_estimate == pytest.approx(1.0, abs=0.05)

    def test_square_summable_terms_converge(self):
        probe = divergence_probe([1.0 / s ** 2 for s in range(1, 50_001)])
        assert probe.status is ProbeStatus.CONVERGES_SUGGESTED

    def test_negative_term_rejected(self):
        with pytest.raises(ValueError):
            divergence_probe([1.0, -0.5, 2.0])

    def test_too_few_terms_undecided(self):
        probe = divergence_probe([1.0, 2.0])
        assert probe.status is ProbeStatus.UNDECIDED

    def test_overflowed_term_ends_the_sample(self):
        # an overflowed term is finite but unknown: it witnesses nothing
        probe = divergence_probe([1.0, 2.0, math.inf, 1.0])
        assert probe.status is ProbeStatus.UNDECIDED
        assert probe.last_partial == 3.0 and probe.witness_onset is None

    # any tail after the first non-finite term, negative terms aside
    TAIL = st.one_of(st.floats(min_value=0.0), st.just(math.nan))

    @settings(max_examples=200, deadline=None)
    @given(prefix=st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=40),
           bad=st.sampled_from([math.inf, math.nan]), tail=st.lists(TAIL, max_size=10),
           start=st.integers(-5, 5))
    def test_non_finite_term_only_ends_the_sample(self, prefix, bad, tail, start):
        assert divergence_probe(prefix + [bad] + tail, start) == divergence_probe(prefix, start)

    @pytest.mark.parametrize("p, n", [(4, 30), (6, 60), (10, 20)])
    def test_polynomial_terms_get_no_geometric_bound(self, p, n):
        # their ratios rise toward 1: t * rho / (1 - rho) falls short of the true tail
        probe = divergence_probe([s ** -float(p) for s in range(1, n + 1)])
        assert probe.status is ProbeStatus.CONVERGES_SUGGESTED
        true_tail = math.fsum(s ** -float(p) for s in range(n + 1, 10 ** 6))
        assert probe.tail_bound is None or probe.tail_bound >= true_tail
        assert probe.term_exponent_estimate == pytest.approx(p, rel=1e-3)

    def test_geometric_terms_keep_their_bound(self):
        probe = divergence_probe([2.0 ** -s for s in range(1, 120)])
        assert probe.tail_bound >= math.fsum(2.0 ** -s for s in range(120, 1200))

    def test_nan_term_undecided(self):
        # a NaN ends the sample as +inf does: what follows it is not read
        probe = divergence_probe([1.0, math.nan, 0.5, math.inf] + [1.0] * 20)
        assert probe.status is ProbeStatus.UNDECIDED
        assert probe.last_partial == 1.0
        assert divergence_probe([1.0, math.inf, math.nan]).status is ProbeStatus.UNDECIDED

    @pytest.mark.parametrize("scale, p, status", [
        (1e-12, 0.5, ProbeStatus.CONVERGES_SUGGESTED),  # the last half adds at most CONVERGED_FRAC
        (1e-4, 0.5, ProbeStatus.DIVERGES_SUGGESTED),    # small growth, fitted p <= P_DIVERGE
        (1e-4, 1.0, ProbeStatus.UNDECIDED),             # small growth, P_DIVERGE < p < P_CONVERGE
    ])
    def test_large_first_term_then_slow_power_law(self, scale, p, status):
        # terms 1, scale * s^(-p): no witness, rising ratios, and the fit is p
        s = np.arange(2, 101, dtype=float)
        probe = divergence_probe(np.concatenate(([1.0], scale * s ** -p)), start_index=1)
        assert probe.status is status
        assert probe.term_exponent_estimate == pytest.approx(p, rel=1e-9)
        assert probe.witness_floor is None and probe.tail_bound is None


class TestThm21:
    def test_example1_holds(self):
        v = crit_thm21(example_equation(1, 2.0), 200)
        assert v.holds
        assert v.conclusion == "every solution oscillates or tends to zero"

    def test_zero_q_fails(self):
        v = crit_thm21(eq_with_q("0"), 100)
        assert v.status is VerdictStatus.NUMERICALLY_FAILS
        assert all(row.term == 0.0 for row in v.evidence)

    def test_witness_before_the_overflow_certifies(self):
        # terms (z - 1) * 1e307 are finite to z = 18: the witness window on that
        # prefix starts at 18 - 8 + 1, and the overflowed terms after it add nothing
        v = crit_thm21(eq_with_q("1e7", r_text="1e-300", alpha=(1, 1)), 200)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS
        assert v.probe.witness_onset == 11 and math.isinf(v.evidence[18].term)

    def test_inner_sum_recurrence_exact(self):
        eq = example_equation(1, 2.0)
        v = crit_thm21(eq, 60)
        # partial sums of q recovered from the evidence satisfy
        # S(z+1) - S(z) = q(z) exactly (terms are (S/r)^(1/alpha))
        for row in v.evidence:
            want = (sum(eq.q(s) for s in range(eq.zeta0, row.zeta)) / eq.r(row.zeta)) ** 3
            assert row.term == pytest.approx(want, rel=1e-9)


class TestThm22:
    def test_example2_22a_holds(self):
        v = crit_thm22a(example_equation(2), 200)
        assert v.holds

    def test_22a_flags_skipped_shift(self):
        # Example 2 starts at 2 because r(1) = 0; theta(1) is not extendable,
        # so the first shifted term is skipped and flagged
        v = crit_thm22a(example_equation(2), 50)
        assert any("skipped" in f for f in v.flags)

    def test_22a_flags_the_reads_a_window_cannot_serve(self):
        # r(80 000) < 0, in the block after the scanned range [1, 65 536]: theta from
        # 65 537 on is not evaluable, so every read goes index by index and flags as before
        eq = HalfLinearEquation(r=Sequence.from_expression("z^2*(80000-z)"),
                                q=Sequence.from_expression("1"), alpha=RationalExponent(1, 1),
                                sigma=1, delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE, zeta0=1)
        horizon = BLOCK + 4
        want = []
        for s in range(eq.zeta0 - eq.sigma, eq.zeta0 + horizon - eq.sigma):
            try:
                theta_extended(eq, s)
            except DomainError:
                want.append(f"theta({s}) not evaluable; term at s={s + eq.sigma} skipped")
        v = crit_thm22a(eq, horizon)
        assert list(v.flags) == want and len(want) == 4  # theta(0), and 65 537 to 65 539
        terms = [t for t, _ in scalar_series(THM22A, eq, horizon)]
        assert v.evidence.term == pytest.approx(terms, rel=1e-12)

    def test_example2_22b_certified(self):
        v = crit_thm22b(example_equation(2), 200)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS
        assert max(abs(r.term - 1.0) for r in v.evidence) <= 1e-9

    def test_22b_partial_sums_count_terms(self):
        v = crit_thm22b(example_equation(2), 150)
        for i, row in enumerate(v.evidence):
            assert row.partial_sum == pytest.approx(i + 1.0, rel=1e-9)

    def test_example1_22b_fails(self):
        # terms are lambda0 * 2^(-s/3): geometric, so the series converges
        v = crit_thm22b(example_equation(1, 2.0), 200)
        assert v.status is VerdictStatus.NUMERICALLY_FAILS
        eq = example_equation(1, 2.0)
        for row in v.evidence[:20]:
            want = 2.0 * 2.0 ** row.zeta * (2.0 ** -row.zeta) ** (4.0 / 3.0)
            assert row.term == pytest.approx(want, rel=1e-9)


class TestLem21:
    def test_example1_certified(self):
        v = crit_lem21(example_equation(1, 2.0), 200)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS
        assert v.conclusion == "every eventually positive solution is eventually decreasing"

    def test_summable_q_fails(self):
        v = crit_lem21(eq_with_q("2^(0-z)"), 150)
        assert v.status is VerdictStatus.NUMERICALLY_FAILS

    def test_constant_q_certified(self):
        v = crit_lem21(eq_with_q("1"), 100)
        assert v.status is VerdictStatus.CERTIFIED_HOLDS

    def test_nan_q_entry_is_not_certified(self):
        eq = replace(eq_with_q("1"), q=Sequence.from_table(1, [math.nan] * 3 + [1.0] * 300))
        with pytest.raises(StageError, match=r"q not evaluable: table\[1\.\.303\] is not finite at index 1"):
            crit_lem21(eq, 200)

    def test_harmonic_q_not_failing(self):
        # q = 1/z is not summable: the ratio window (0.99 at z = 100) proves nothing
        v = crit_lem21(eq_with_q("1/z", r_text="z", alpha=(1, 1)), 100)
        assert v.status is not VerdictStatus.NUMERICALLY_FAILS
        assert v.probe.tail_bound is None


class TestThm23:
    def test_example1_value_at_three(self):
        v = crit_thm23(example_equation(1, 2.0), 200)
        row = next(r for r in v.evidence if r.zeta == 3)
        # theta = 2^(1-z); v(3) = 2^(-2/3) * 2 * (2^3 - 2) = 12 * 2^(-2/3)
        assert row.running_value == pytest.approx(12.0 * 2.0 ** (-2.0 / 3.0), rel=1e-12)
        assert v.holds

    def test_zero_q_fails(self):
        v = crit_thm23(eq_with_q("0"), 100)
        assert v.status is VerdictStatus.NUMERICALLY_FAILS
        assert all(row.running_value == 0.0 for row in v.evidence)

    def test_limsup_just_above_one_inconclusive(self):
        # theta = 2^(1-z) and sum_{s<z} q(s) = c * (2^(z-1) - 1), so v = c * (1 - 2^(1-z))
        # stays in the band (1, 1 + THM23_MARGIN] for c = 1 + 5e-7
        v = crit_thm23(eq_with_q("1.0000005*2^(z-1)", r_text="2^z", alpha=(1, 1)), 40)
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert 1.0 < v.probe.last_partial <= 1.0 + 1e-6
        assert v.probe.status is ProbeStatus.UNDECIDED


class TestFramework:
    def test_evaluate_criterion_dispatch(self):
        eq = example_equation(1, 2.0)
        for cid in CRITERION_IDS:
            v = evaluate_criterion(cid, eq, 120)
            assert v.criterion == cid
            assert v.evidence

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            evaluate_criterion("Thm99", example_equation(1), 50)

    def test_certified_statuses_survive_larger_horizons(self):
        eq = example_equation(2)
        for small, large in [(100, 200), (200, 400)]:
            a = crit_thm22b(eq, small)
            b = crit_thm22b(eq, large)
            if a.status is VerdictStatus.CERTIFIED_HOLDS:
                assert b.status is VerdictStatus.CERTIFIED_HOLDS

    def test_evidence_reevaluates_from_coefficients(self):
        eq = example_equation(2)
        v = crit_thm22b(eq, 80)
        a1 = eq.alpha.value + 1.0
        for row in v.evidence[::7]:
            want = eq.q(row.zeta) * theta(eq, row.zeta + 1).value ** a1
            assert abs(row.term - want) <= 1e-12 * max(1.0, abs(want))

    def test_invalid_equation_refused(self):
        eq = eq_with_q("1", r_text="z-10", alpha=(1, 1))
        with pytest.raises(StageError):
            crit_lem21(eq, 50)

    def test_verdicts_compare_and_hash_by_rows(self):
        v = evaluate_criterion("Lem21", example_equation(3), 50)
        again = evaluate_criterion("Lem21", example_equation(3), 50)
        assert v == again and hash(v) == hash(again)
        rebuilt = replace(v, evidence=tuple(v.evidence))  # rows, taken as columns
        assert rebuilt == v and hash(rebuilt) == hash(v)
        assert repr(v.evidence).startswith("Evidence((EvidenceRow(")


class TestZeroWeight:
    """A zero weight (q, or Thm23's empty sum at zeta0) gives a zero term where theta^p
    overflows to inf, as Thm22A's skipped shifts and to_canonical do, not 0 * inf = NaN.
    A non-zero weight times an overflowed theta^p is +inf: the term is finite but
    unknown, and the probe judges only the terms before it."""

    # theta(1) is about 5e186, so theta^(5/3) overflows near zeta0; with r = 1e-200*2^z,
    # theta(2)^2 overflows. Both series converge geometrically.
    HUGE_THETA = dict(r_text="10^(z-312)", alpha=(5, 3))
    HUGE_THETA_SQUARED = dict(r_text="1e-200*2^z", alpha=(1, 1))

    def test_thm22b_zero_q_before_an_overflowed_term(self):
        v = crit_thm22b(eq_with_q("z-1", **self.HUGE_THETA_SQUARED), 200)
        assert v.evidence[0].term == 0.0 and math.isinf(v.evidence[1].term)
        assert v.status is VerdictStatus.INCONCLUSIVE

    def test_thm22a_zero_q_before_an_overflowed_weight(self):
        v = crit_thm22a(eq_with_q("z-1", **self.HUGE_THETA), 200)
        assert v.evidence[1].term == 0.0 and math.isinf(v.evidence[2].term)
        assert v.status is VerdictStatus.INCONCLUSIVE

    @pytest.mark.parametrize("cid,config", [(THM22A, "HUGE_THETA"), (THM22B, "HUGE_THETA"),
                                            (THM22B, "HUGE_THETA_SQUARED")])
    @pytest.mark.parametrize("q_text", ["1", "1e-300"])
    def test_overflowed_product_is_not_divergence(self, cid, config, q_text):
        v = evaluate_criterion(cid, eq_with_q(q_text, **getattr(self, config)), 200)
        assert v.status is VerdictStatus.INCONCLUSIVE

    @pytest.mark.parametrize("cid", [THM22A, THM22B, THM23])
    def test_zero_q_fails(self, cid):
        v = evaluate_criterion(cid, eq_with_q("0", **self.HUGE_THETA), 200)
        assert all(row.term == row.running_value == 0.0 for row in v.evidence)
        assert v.status is VerdictStatus.NUMERICALLY_FAILS

    def test_thm23_empty_sum_at_zeta0_is_zero(self):
        v = crit_thm23(eq_with_q("1", **self.HUGE_THETA), 200)
        assert v.evidence[0].running_value == 0.0 and math.isinf(v.evidence[1].running_value)


def scalar_series(cid, eq, horizon):
    """(term, running value or None) per index, recomputed one index at a time
    from the scalar eq.r, eq.q and theta, with inner sums added left to right."""
    zs = range(eq.zeta0, eq.zeta0 + horizon)
    a, inv_alpha = eq.alpha.value, eq.alpha.den / eq.alpha.num
    th = lambda z: theta(eq, z).value  # noqa: E731
    if cid == LEM21:
        return [(eq.q(z), None) for z in zs]
    if cid == THM22B:
        return [(eq.q(z) * th(z + 1) ** (a + 1.0), None) for z in zs]
    if cid == CANONICAL_SUM_Q:  # a zero q needs no theta at the shifted index
        return [(inv_alpha * th(z + 1) * th(z) ** (a - 1.0)
                 * theta_extended(eq, z - eq.sigma + 1).value * eq.q(z) if eq.q(z) else 0.0, None)
                for z in zs]
    out, inner, q_prev = [], 0.0, 0.0
    for z in zs:
        if cid == THM23:
            inner = inner + q_prev
            out.append((q_prev, th(z) ** a * inner))
            q_prev = eq.q(z)
        elif cid == THM21:
            out.append(((inner / eq.r(z)) ** inv_alpha, None))
            inner = inner + eq.q(z)
        else:  # Thm22A: a shift theta cannot reach adds nothing
            out.append(((inner / eq.r(z)) ** inv_alpha, None))
            try:
                inner = inner + eq.q(z) * theta_extended(eq, z - eq.sigma).value ** a
            except DomainError:
                pass
    return out


class TestOneCodePath:
    """Every series goes from its term column to evidence the same way."""

    # non-canonical with a power-law tail; r(0) = 0, so Thm22A skips its first shifts
    EQ = HalfLinearEquation(
        r=Sequence.from_expression("(z*(z+1.7))^(5/3)"),
        q=Sequence.from_expression("4*(z^2-1)*z^(2/3)/3"),
        alpha=RationalExponent(5, 3),
        sigma=2,
        delay_form=DelayForm.MINUS_SIGMA_PLUS_ONE,
        zeta0=1,
    )

    @pytest.mark.parametrize("cid", CRITERION_IDS + (CANONICAL_SUM_Q,))
    def test_evidence_from_one_term_column(self, cid):
        eq, horizon = self.EQ, 150
        if cid == CANONICAL_SUM_Q:
            v = crit_canonical_sumq(to_canonical(eq, horizon), horizon)
        else:
            v = evaluate_criterion(cid, eq, horizon)
        assert [row.zeta for row in v.evidence] == list(range(eq.zeta0, eq.zeta0 + horizon))
        partial = 0.0
        for row in v.evidence:
            partial = partial + row.term
            assert row.partial_sum == partial
            if cid != THM23:
                assert row.running_value == row.partial_sum
        for row, (term, running) in zip(v.evidence, scalar_series(cid, eq, horizon)):
            assert row.term == pytest.approx(term, rel=1e-15, abs=0.0)
            if running is not None:
                assert row.running_value == pytest.approx(running, rel=1e-15, abs=0.0)
        if cid == THM23:
            # the partial sum is sum_{s=zeta1}^{z-1} q(s)
            for row in v.evidence:
                want = math.fsum(eq.q(s) for s in range(eq.zeta0, row.zeta))
                assert row.partial_sum == pytest.approx(want, rel=1e-14, abs=0.0)


def power_law_eq(r_text, q_text, form=DelayForm.MINUS_SIGMA_PLUS_ONE):
    return HalfLinearEquation(
        r=Sequence.from_expression(r_text),
        q=Sequence.from_expression(q_text),
        alpha=RationalExponent(1, 1),
        sigma=1,
        delay_form=form,
        zeta0=1,
    )


THETA_READERS = (THM22A, THM22B, THM23)


class TestTailGate:
    """The criteria that read theta apply only where sum r^(-1/alpha) < inf is established."""

    def test_established_tails(self):
        assert [tail_shortfall(example_equation(n)) for n in (1, 2, 3)] == [None] * 3
        assert theta(TestOneCodePath.EQ, 1).method == "poly_tail"
        assert tail_shortfall(TestOneCodePath.EQ) is None

    @pytest.mark.parametrize("cid", THETA_READERS)
    def test_canonical_equation_declined(self, cid):
        # sum z^(-1/2) diverges, but the tail pass stops at max_terms with theta(1) = 1998.5,
        # which Thm22A and Thm23 used to read as a finite tail
        eq = power_law_eq("z^(1/2)", "1/z^4")
        assert theta(eq, 1).method == "max_terms" and tail_shortfall(eq) == "max_terms"
        v = evaluate_criterion(cid, eq, 200)
        assert v.status is VerdictStatus.INCONCLUSIVE and not v.holds
        assert v.flags == ("sum of r^(-1/alpha) not established finite: theta(1) method max_terms; "
                           "criterion not applied",)
        assert len(v.evidence) == 0 and v.probe is None

    def test_criteria_without_theta_still_run(self):
        eq = power_law_eq("z^(1/2)", "1/z^4")
        assert evaluate_criterion(THM21, eq, 200).evidence
        assert evaluate_criterion(LEM21, eq, 200).status is VerdictStatus.NUMERICALLY_FAILS

    def test_hypotheses_checked_before_the_tail(self):
        with pytest.raises(StageError, match="hypothesis H1"):
            crit_thm23(power_law_eq("z-3", "1"), 50)

    # r = z^p with p <= 1 is canonical, and p = 3/2 converges too slowly for the tail
    # pass to establish it: a criterion that reads theta must decline both
    @settings(max_examples=12, deadline=None)
    @given(p=st.sampled_from(["1/2", "1", "3/2"]), k=st.sampled_from([0, 2, 4]),
           c=st.sampled_from([0.5, 3.0]), form=st.sampled_from(list(DelayForm)),
           cid=st.sampled_from(THETA_READERS))
    def test_unestablished_tail_never_holds(self, p, k, c, form, cid):
        eq = power_law_eq(f"z^({p})", f"{c}/z^{k}", form)
        assert tail_shortfall(eq) is not None
        v = evaluate_criterion(cid, eq, 120)
        assert v.status is VerdictStatus.INCONCLUSIVE and v.flags[0].startswith("sum of r^(-1/alpha)")
