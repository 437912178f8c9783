"""Verdicts on simulated surveys whose truth is known, in both designs.

Each case runs in-process through run_protocol -> estimate_frequencies ->
violation_test -> dataio.verdict.  The verdict reads one facet of the
classical polytope, in a conditional form that holds only for fair marginals
(ROADMAP item 1).  So a classical law with unfair marginals reads as a
violation, and the witness with one question reversed reads as classical,
though it is exactly as non-classical as the witness.  Those cases are strict
xfails: the change that fixes the verdict must turn them into passing tests.
"""

import pytest

from belltest import (
    ClassicalHiddenVariable,
    JointDistribution3,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    estimate_frequencies,
    run_protocol,
    violation_test,
)
from belltest.dataio import VERDICT_CLASSICAL, VERDICT_QUANTUM, verdict
from belltest.protocol import DesignVariant

ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
DESIGNS = pytest.mark.parametrize("variant", list(DesignVariant), ids=["three", "two"])

# Margin -0.996 (three-ensemble) and -0.997 (two-ensemble) at n = 20 000.
DEFECT_LAW = ClassicalHiddenVariable(
    joint=JointDistribution3((0, 0, 0.002, 0.383, 0, 0.339, 0, 0.276)))
WITNESS = (0.0, 2.0943951, 1.0471976)
# Margin +0.745 to +0.756 at n = 200 000, against the witness's -0.25.
REVERSED = {
    "a-reversed": (3.14159265, 2.0943951, 1.0471976),
    "b-reversed": (0.0, 5.2359878, 1.0471976),
    "c-reversed": (0.0, 2.0943951, 4.1887902),
}


def quantum(angles):
    return QuantumUnpolarized(questions=QuestionTriple.from_floats(*angles))


def survey_test(pop, variant, n_per_branch, seed):
    design = ProtocolDesign(variant=variant, n_per_branch=n_per_branch)
    return violation_test(estimate_frequencies(run_protocol(pop, design, seed=seed)))


@ITEM_1
@DESIGNS
def test_defect_law_is_not_a_violation(variant):
    assert verdict(survey_test(DEFECT_LAW, variant, 20_000, 1)) != VERDICT_QUANTUM


@ITEM_1
@DESIGNS
@pytest.mark.parametrize("angles", REVERSED.values(), ids=REVERSED.keys())
def test_reversed_witness_is_not_classical(variant, angles):
    assert verdict(survey_test(quantum(angles), variant, 200_000, 3)) != VERDICT_CLASSICAL


@pytest.mark.parametrize("variant, margin", [(DesignVariant.THREE_ENSEMBLE, -0.248),
                                             (DesignVariant.TWO_ENSEMBLE, -0.251)],
                         ids=["three", "two"])
def test_witness_is_a_violation(variant, margin):
    test = survey_test(quantum(WITNESS), variant, 200_000, 3)
    assert verdict(test) == VERDICT_QUANTUM
    assert round(test.margin_estimate, 3) == margin
