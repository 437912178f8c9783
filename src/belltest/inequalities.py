"""Classical-bound checks for three dichotomic variables.

Three forms are evaluated, all with the convention that ``margin`` is the
slack of the bound: non-negative for every single classical law, and
negative exactly when the bound is violated.

* covariance form:   |<ab> - <cb>|  <=  1 - <ac>
* joint form:        P(a+, b+) + P(b-, c+)  >=  P(a+, c+)
* conditional form:  P(a+|b+) + P(c+|b-)  >=  P(a+|c+)
                     (requires each marginal to be fair)

The interference coefficient quantifies the departure of an observed
probability from the additive rule p = p1 + p2, normalized so that a
classical mixture gives 0 and any value with magnitude <= 1 can be written
as a cosine.

Every check allows a fixed rounding slack, ``TOLERANCE`` = 1e-9: a bound is
violated only when its margin is below -1e-9, and the interference regimes'
edges (|coefficient| 0 and 1) are widened by 1e-9.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateAlternatives, is_real
from .probability import (CondTriple, JointDistribution3, Outcome, VariableIndex, covariance,
                          event_probability)

TOLERANCE = 1e-9


class InequalityKind(Enum):
    BELL_COVARIANCE = "BellCovariance"
    WIGNER_JOINT = "WignerJoint"
    WIGNER_CONDITIONAL = "WignerConditional"


class InequalityReport(NamedTuple):
    kind: InequalityKind
    lhs_terms: tuple[float, ...]
    rhs: float
    margin: float
    violated: bool


class InterferenceRegime(Enum):
    CLASSICAL = "Classical"
    TRIGONOMETRIC = "Trigonometric"
    HYPERBOLIC = "Hyperbolic"


class InterferenceResult(NamedTuple):
    coefficient: float
    regime: InterferenceRegime


def _report(
    kind: InequalityKind, lhs_terms: tuple[float, ...], rhs: float, margin: float
) -> InequalityReport:
    return tuple.__new__(InequalityReport, (kind, lhs_terms, rhs, margin, margin < -TOLERANCE))


def bell_covariance_check(joint: JointDistribution3) -> InequalityReport:
    """Covariance-form check; margin = (1 - <ac>) - |<ab> - <cb>|."""
    cov_ab = covariance(joint, VariableIndex.A, VariableIndex.B)
    cov_cb = covariance(joint, VariableIndex.C, VariableIndex.B)
    cov_ac = covariance(joint, VariableIndex.A, VariableIndex.C)
    rhs = 1.0 - cov_ac
    margin = rhs - abs(cov_ab - cov_cb)
    return _report(InequalityKind.BELL_COVARIANCE, (cov_ab, cov_cb), rhs, margin)


def wigner_joint_check(joint: JointDistribution3) -> InequalityReport:
    """Joint-probability form; margin = P(a+,b+) + P(b-,c+) - P(a+,c+).

    For any 8-atom law this margin equals w(++-) + w(--+) identically.
    """
    a, b, c, plus = VariableIndex.A, VariableIndex.B, VariableIndex.C, Outcome.PLUS
    p_ab = event_probability(joint, (a, plus), (b, plus))
    p_bc = event_probability(joint, (b, Outcome.MINUS), (c, plus))
    p_ac = event_probability(joint, (a, plus), (c, plus))
    margin = math.fsum((p_ab, p_bc, -p_ac))
    return _report(InequalityKind.WIGNER_JOINT, (p_ab, p_bc), p_ac, margin)


def wigner_conditional_check(triple: CondTriple) -> InequalityReport:
    """Conditional-probability form; margin = p(a+|b+) + p(c+|b-) - p(a+|c+)."""
    p1, p2, p3 = triple
    return _report(InequalityKind.WIGNER_CONDITIONAL, (p1, p2), p3, p1 + p2 - p3)


def interference_coefficient(p: float, p1: float, p2: float) -> InterferenceResult:
    """Normalized interference term (p - p1 - p2) / (2 sqrt(p1 p2)).

    |coefficient| <= 1 can be realized as cos(theta) (trigonometric regime);
    larger magnitudes fall outside that parameterization (hyperbolic).
    Each probability must be a number, not a bool, in [0, 1] (ValueError,
    which NaN fails too); a product p1 * p2 that is 0, as when p1 or p2 is 0
    or the product underflows, raises DegenerateAlternatives.
    """
    for label, value in (("p", p), ("p1", p1), ("p2", p2)):
        if not (is_real(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"{label} must be in [0, 1], got {value!r}")
    if p1 * p2 == 0.0:
        raise DegenerateAlternatives(f"p1 * p2 must be positive, got p1={p1!r}, p2={p2!r}")
    coefficient = (p - p1 - p2) / (2.0 * math.sqrt(p1 * p2))
    if abs(coefficient) <= TOLERANCE:
        regime = InterferenceRegime.CLASSICAL
    elif abs(coefficient) <= 1.0 + TOLERANCE:
        regime = InterferenceRegime.TRIGONOMETRIC
    else:
        regime = InterferenceRegime.HYPERBOLIC
    return InterferenceResult(coefficient=coefficient, regime=regime)
