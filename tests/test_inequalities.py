import math

import numpy as np
import pytest

from belltest import (
    CondTriple,
    DegenerateAlternatives,
    InequalityKind,
    InterferenceRegime,
    JointDistribution3,
    Outcome,
    VariableIndex,
    bell_covariance_check,
    conditional,
    event_probability,
    interference_coefficient,
    random_joint,
    symmetrize,
    wigner_conditional_check,
    wigner_joint_check,
)
from belltest.probability import ATOMS, atom_index

A, B, C = VariableIndex.A, VariableIndex.B, VariableIndex.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

PERFECT = JointDistribution3.from_atoms({(1, 1, 1): 0.5, (-1, -1, -1): 0.5})
UNIFORM = JointDistribution3.uniform()

N_FUZZ = 2000  # the full 1e5 sweeps run in the acceptance suite


def conditional_triple(joint):
    return CondTriple(
        p_a_given_b_plus=conditional(joint, (A, PLUS), (B, PLUS)),
        p_c_given_b_minus=conditional(joint, (C, PLUS), (B, MINUS)),
        p_a_given_c_plus=conditional(joint, (A, PLUS), (C, PLUS)),
    )


def test_pointwise_sign_identity():
    # |s_a s_b - s_c s_b| = 1 - s_a s_c on every atom, exactly.
    for sa, sb, sc in ATOMS:
        assert abs(sa * sb - sc * sb) == 1 - sa * sc


class TestBellCovariance:
    def test_equality_case(self):
        report = bell_covariance_check(PERFECT)
        assert report.kind is InequalityKind.BELL_COVARIANCE
        assert report.margin == pytest.approx(0.0, abs=1e-15)
        assert not report.violated

    def test_uniform(self):
        report = bell_covariance_check(UNIFORM)
        assert report.margin == pytest.approx(1.0, abs=1e-15)
        assert not report.violated

    def test_fuzz_never_violated(self):
        rng = np.random.default_rng(1)
        for _ in range(N_FUZZ):
            assert bell_covariance_check(random_joint(rng)).margin >= -1e-12


class TestWignerJoint:
    def test_deterministic_point_mass(self):
        report = wigner_joint_check(JointDistribution3.point_mass((1, 1, 1)))
        assert report.lhs_terms == (1.0, 0.0)
        assert report.rhs == 1.0
        assert report.margin == pytest.approx(0.0, abs=1e-15)

    def test_uniform(self):
        report = wigner_joint_check(UNIFORM)
        assert report.lhs_terms == (0.25, 0.25)
        assert report.rhs == 0.25
        assert report.margin == pytest.approx(0.25, abs=1e-15)

    def test_margin_equals_two_atom_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(N_FUZZ):
            joint = random_joint(rng)
            w = joint.weights
            expected = w[atom_index((1, 1, -1))] + w[atom_index((-1, -1, 1))]
            assert wigner_joint_check(joint).margin == pytest.approx(
                expected, abs=1e-15
            )


class TestWignerConditional:
    def test_equality_from_perfect_correlation(self):
        report = wigner_conditional_check(CondTriple(1.0, 0.0, 1.0))
        assert report.margin == pytest.approx(0.0, abs=1e-15)
        assert not report.violated

    def test_quantum_triple_violates(self):
        report = wigner_conditional_check(CondTriple(0.25, 0.25, 0.75))
        assert report.margin == pytest.approx(-0.25, abs=1e-15)
        assert report.violated

    def test_symmetrized_classical_never_violates(self):
        rng = np.random.default_rng(3)
        for _ in range(N_FUZZ):
            sym = symmetrize(random_joint(rng))
            assert wigner_conditional_check(conditional_triple(sym)).margin >= -1e-12

    def test_conditional_joint_bridge_at_fair_marginals(self):
        # With fair marginals, P(a+|b+) = 2 P(a+, b+).
        rng = np.random.default_rng(4)
        for _ in range(200):
            sym = symmetrize(random_joint(rng))
            assert event_probability(sym, (B, PLUS)) == pytest.approx(0.5, abs=1e-15)
            p_cond = conditional(sym, (A, PLUS), (B, PLUS))
            p_joint = sym.weights[atom_index((1, 1, 1))] + sym.weights[atom_index((1, 1, -1))]
            assert p_cond == pytest.approx(2.0 * p_joint, abs=1e-14)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            CondTriple(1.2, 0.0, 0.5)

    @pytest.mark.parametrize("p3, violated", [(0.5, False), (0.5 + 5e-10, False),
                                              (0.5 + 2e-9, True)])
    def test_fixed_slack_of_1e_9(self, p3, violated):
        # The tolerance is no longer settable: a margin down to -1e-9 is
        # rounding and holds, and one below it is a violation.
        report = wigner_conditional_check(CondTriple(0.25, 0.25, p3))
        assert report.violated is violated


class TestInterferenceCoefficient:
    def test_classical_additivity(self):
        result = interference_coefficient(0.5, 0.25, 0.25)
        assert result.coefficient == 0.0
        assert result.regime is InterferenceRegime.CLASSICAL

    def test_trigonometric_boundary(self):
        result = interference_coefficient(1.0, 0.25, 0.25)
        assert result.coefficient == pytest.approx(1.0, abs=1e-15)
        assert result.regime is InterferenceRegime.TRIGONOMETRIC

    def test_hyperbolic(self):
        result = interference_coefficient(0.9, 0.1, 0.1)
        assert result.coefficient == pytest.approx(3.5, abs=1e-14)
        assert result.regime is InterferenceRegime.HYPERBOLIC

    def test_degenerate_alternatives(self):
        with pytest.raises(DegenerateAlternatives):
            interference_coefficient(0.5, 0.0, 0.5)

    def test_underflowing_product_is_degenerate(self):
        # Each alternative is positive, but p1 * p2 rounds to 0: dividing by
        # its square root raised ZeroDivisionError.
        with pytest.raises(DegenerateAlternatives, match="p1 \\* p2 must be positive"):
            interference_coefficient(0.5, 1e-170, 1e-170)
        assert interference_coefficient(0.5, 1e-150, 1e-150).regime \
            is InterferenceRegime.HYPERBOLIC

    @pytest.mark.parametrize("p1, p2", [
        (math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3), (0.3, -math.inf),
        (1.5, 0.3), (0.3, 1.0 + 1e-12), (-0.1, 0.3), (0.3, -1e-300),
    ])
    def test_rejects_alternatives_outside_unit_interval(self, p1, p2):
        with pytest.raises(ValueError, match=r"p[12] must be in \[0, 1\]"):
            interference_coefficient(0.5, p1, p2)

    def test_accepts_alternatives_at_one(self):
        result = interference_coefficient(1.0, 1.0, 1.0)
        assert result.coefficient == pytest.approx(-0.5, abs=1e-15)
        assert result.regime is InterferenceRegime.TRIGONOMETRIC

    def test_inverts_interference_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            p1, p2 = rng.uniform(0.01, 0.5, size=2)
            p = float(np.clip(rng.uniform(), 0.0, 1.0))
            coef = interference_coefficient(p, p1, p2).coefficient
            recovered = p1 + p2 + 2.0 * coef * math.sqrt(p1 * p2)
            assert recovered == pytest.approx(p, abs=1e-14)
