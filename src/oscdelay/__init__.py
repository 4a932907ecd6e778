"""Oscillation analysis of second-order half-linear delay difference equations."""

from .power import RationalExponent, signed_pow
from .sequences import Sequence
from .equation import (
    DelayForm,
    FormClass,
    HalfLinearEquation,
    TailSumResult,
    R_partial,
    classify_form,
    theta,
    theta_extended,
    validate,
)
from .solver import (
    InitialData,
    Trajectory,
    TrajectoryClass,
    TrajectoryKind,
    classify_trajectory,
    iterate,
    lemma22_check,
    residual,
    residual_pointwise,
)
from .criteria import (
    CriterionVerdict,
    DivergenceAssessment,
    ProbeStatus,
    VerdictStatus,
    crit_lem21,
    crit_thm21,
    crit_thm22a,
    crit_thm22b,
    crit_thm23,
    divergence_probe,
    evaluate_criterion,
)
from .transform import (
    canonical_residual,
    crit_canonical_sumq,
    to_canonical,
)
from .examples import example_equation, reproduce_example

__version__ = "0.1.0"

__all__ = [
    "RationalExponent",
    "signed_pow",
    "Sequence",
    "DelayForm",
    "FormClass",
    "HalfLinearEquation",
    "TailSumResult",
    "R_partial",
    "classify_form",
    "theta",
    "theta_extended",
    "validate",
    "InitialData",
    "Trajectory",
    "TrajectoryClass",
    "TrajectoryKind",
    "classify_trajectory",
    "iterate",
    "lemma22_check",
    "residual",
    "residual_pointwise",
    "CriterionVerdict",
    "DivergenceAssessment",
    "ProbeStatus",
    "VerdictStatus",
    "crit_lem21",
    "crit_thm21",
    "crit_thm22a",
    "crit_thm22b",
    "crit_thm23",
    "divergence_probe",
    "evaluate_criterion",
    "canonical_residual",
    "crit_canonical_sumq",
    "to_canonical",
    "example_equation",
    "reproduce_example",
]
