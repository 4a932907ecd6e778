"""The paper's theorems as oracles on computed trajectories.

Thm22A, Thm22B and Thm23 conclude that every solution oscillates.  Lem21 concludes
that every eventually positive solution is eventually decreasing; x -> -x maps
solutions to solutions, so an eventually negative one is eventually increasing.
Where a criterion holds at horizon 200, trajectories iterated to zeta0 + 5000 from
random initial data must not contradict its conclusion: no completed trajectory may
be eventually one-signed, and for Lem21 the last step of one that is must shrink |x|.
A finite window proves neither side, so a contradiction is a finding to record,
never a rule to widen.

Thm21 ("every solution oscillates or tends to zero") is left out of the oracle: a
finite window cannot tell a solution tending to zero from one growing slowly.  Its
known fault, holding where the paper's condition sum r^(-1/alpha) < inf fails, is
pinned below as an expected failure.
"""
import functools
import random

import pytest

from oscdelay import (
    DelayForm,
    HalfLinearEquation,
    InitialData,
    RationalExponent,
    Sequence,
    classify_trajectory,
    example_equation,
    iterate,
)
from oscdelay import criteria
from oscdelay.criteria import (LEM21, THM21, THM22A, THM22B, THM23, DivergenceAssessment,
                               ProbeStatus, evaluate_criterion)
from oscdelay.errors import OscDelayError
from oscdelay.solver import StatusKind, TrajectoryKind

HORIZON = 200  # the criteria's default horizon
STEPS = 5000  # each trajectory runs to zeta0 + STEPS
DRAWS = 10  # initial vectors per family
OSCILLATES = (THM22A, THM22B, THM23)  # "every solution oscillates"
ONE_SIGNED = (TrajectoryKind.EVENTUALLY_POSITIVE, TrajectoryKind.EVENTUALLY_NEGATIVE)


def equation(r, q, alpha, sigma, form, zeta0=1) -> HalfLinearEquation:
    return HalfLinearEquation(r=Sequence.from_expression(r), q=Sequence.from_expression(q),
                              alpha=RationalExponent(*alpha), sigma=sigma,
                              delay_form=DelayForm(form), zeta0=zeta0)


# six delay_plus_one families r = (z*(z+c))^alpha with a small q: (r, q, alpha, sigma)
LEMMA22_FAMILIES = [
    ("(z*(z+1))^(5/3)", "0.01*z^(2/3)", (5, 3), 1),
    ("(z*(z+1))^(5/3)", "0.01*z^(2/3)", (5, 3), 3),
    ("(z*(z+1.7))^(5/3)", "0.001*z^(2/3)", (5, 3), 2),
    ("(z*(z+1))^3", "0.01*z^2", (3, 1), 1),
    ("(z*(z+1))^(7/5)", "0.01*z^(2/5)", (7, 5), 1),
    ("(z*(z+1))^(5/3)", "z^(-3)", (5, 3), 1),
]

FAMILIES = {
    **{f"example {n}": functools.partial(example_equation, n) for n in (1, 2, 3)},
    "benchmark": functools.partial(equation, "(z*(z+1.7))^(5/3)", "z^(4/3)", (5, 3), 2,
                                   "delay_plus_one"),
    **{f"{r}, {q}, sigma {sigma}": functools.partial(equation, r, q, alpha, sigma, "delay_plus_one")
       for r, q, alpha, sigma in LEMMA22_FAMILIES},
    # the Euler family below its constant 1/4: some solution does not oscillate
    **{f"euler 0.2, {form}": functools.partial(equation, "z^2", "0.2", (1, 1), 1, form, zeta0=2)
       for form in ("delay", "delay_plus_one")},
    "1.5^z": functools.partial(equation, "1.5^z", "0.001*1.5^(-z)", (1, 1), 1, "delay"),
    "canonical": functools.partial(equation, "1", "1/z^3", (1, 1), 1, "delay"),
}


def completed_runs(families: dict, seed: int) -> dict:
    """Family name -> (trajectory, class) of each completed run: DRAWS initial vectors per
    family, uniform in [-1, 1], from one random.Random(seed) stream in the order listed."""
    rng = random.Random(seed)
    runs = {}
    for name, build in families.items():
        eq = build()
        runs[name] = []
        for _ in range(DRAWS):
            init = InitialData.for_equation(eq, [rng.uniform(-1.0, 1.0) for _ in range(eq.sigma + 2)])
            traj = iterate(eq, init, eq.zeta0 + STEPS)
            if traj.status.kind is StatusKind.COMPLETED:
                runs[name].append((traj, classify_trajectory(traj)))
    return runs


@functools.cache
def oracle_runs() -> dict:
    return completed_runs(FAMILIES, seed=0)


def holding(eq: HalfLinearEquation, criterion_ids) -> set:
    """The criteria that hold at HORIZON; one that raises does not hold."""
    held = set()
    for cid in criterion_ids:
        try:
            if evaluate_criterion(cid, eq, HORIZON).holds:
                held.add(cid)
        except OscDelayError:
            pass
    return held


def contradictions() -> list:
    """(family, criterion, initial data) for each completed trajectory that
    contradicts a criterion holding on its family."""
    found = []
    for name, build in FAMILIES.items():
        eq = build()
        held = holding(eq, (*OSCILLATES, LEM21))
        for traj, cls in oracle_runs()[name]:
            if cls.kind not in ONE_SIGNED:
                continue
            init = traj.x[:eq.sigma + 2]
            found += [(name, cid, init) for cid in sorted(held.intersection(OSCILLATES))]
            if LEM21 in held and abs(traj.x[-1]) >= abs(traj.x[-2]):
                found.append((name, LEM21, init))
    return found


# No run of these completes: examples 1 and 2 overflow (ROADMAP item 5), and r = 1.5^z
# passes the float range at z = 1751, a domain error.  Every other run completes.
OUT_OF_RANGE = {"example 1", "example 2", "1.5^z"}


def test_trajectories_do_not_contradict_the_theorems():
    runs = oracle_runs()
    assert {name for name, done in runs.items() if not done} == OUT_OF_RANGE
    assert all(len(done) == DRAWS for name, done in runs.items() if name not in OUT_OF_RANGE)
    assert contradictions() == []


def test_a_probe_that_certifies_every_series_is_contradicted(monkeypatch):
    def certify(terms, start_index=1):
        return DivergenceAssessment(ProbeStatus.CERTIFIED_DIVERGES, last_partial=float("inf"))

    monkeypatch.setattr(criteria, "divergence_probe", certify)
    assert len(contradictions()) > 0


# ROADMAP item 3's repro and the canonical family above: sum r^(-1/alpha) diverges
THM21_UNGATED = {
    "z^(1/2), 1/z^4": functools.partial(equation, "z^(1/2)", "1/z^4", (1, 1), 1, "delay_plus_one"),
    "canonical": FAMILIES["canonical"],
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_thm21_declines_where_one_signed_solutions_grow():
    """Where Thm21 holds, no completed trajectory is one-signed and ends larger in
    magnitude than at its onset: such a solution neither oscillates nor tends to zero."""
    growing = []
    for name, done in completed_runs(THM21_UNGATED, seed=1).items():
        if THM21 not in holding(THM21_UNGATED[name](), (THM21,)):
            continue
        growing += [name for traj, cls in done
                    if cls.kind in ONE_SIGNED and abs(traj.x[-1]) > abs(traj.x_at(cls.since))]
    assert growing == []
