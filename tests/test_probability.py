import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belltest import (
    ATOMS,
    JointDistribution3,
    Outcome,
    VariableIndex,
    ZeroConditioningEvent,
    conditional,
    covariance,
    marginal_plus,
    random_joint,
    symmetrize,
)

A, B, C = VariableIndex.A, VariableIndex.B, VariableIndex.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

PERFECT = JointDistribution3.from_atoms({(1, 1, 1): 0.5, (-1, -1, -1): 0.5})


def oracle_covariance(weights, i, j):
    # Independent brute force: explicit loop over the 8 atoms.
    total = 0.0
    for k, (sa, sb, sc) in enumerate(ATOMS):
        signs = (sa, sb, sc)
        total += signs[i] * signs[j] * weights[k]
    return total


def oracle_marginal_plus(weights, i):
    total = 0.0
    for k, atom in enumerate(ATOMS):
        if atom[i] == 1:
            total += weights[k]
    return total


joints = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=8, max_size=8
).filter(lambda w: sum(w) > 1e-6).map(
    lambda w: JointDistribution3(tuple(x / sum(w) for x in w))
)


class TestJointDistribution3:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            JointDistribution3((0.5, 0.5))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            JointDistribution3((1.1, -0.1, 0, 0, 0, 0, 0, 0))

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            JointDistribution3((0.2,) * 8)

    def test_renormalizes_exactly(self):
        w = (0.125 + 1e-13,) + (0.125,) * 7
        joint = JointDistribution3(w)
        assert math.fsum(joint.weights) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_atom_lookup(self):
        joint = JointDistribution3.point_mass((1, -1, 1))
        assert joint.atom((1, -1, 1)) == 1.0
        assert joint.atom((1, 1, 1)) == 0.0


class TestCovariance:
    def test_perfect_correlation(self):
        assert covariance(PERFECT, A, B) == 1.0

    def test_uniform_independence(self):
        assert covariance(JointDistribution3.uniform(), A, C) == 0.0

    def test_matches_bruteforce_on_fixed_law(self):
        w = (0.05, 0.1, 0.15, 0.2, 0.25, 0.1, 0.05, 0.1)
        joint = JointDistribution3(w)
        for i in (A, B, C):
            for j in (A, B, C):
                assert covariance(joint, i, j) == pytest.approx(
                    oracle_covariance(joint.weights, i, j), abs=1e-15
                )

    @given(joints)
    def test_bounds_and_self_covariance(self, joint):
        for i in (A, B, C):
            assert covariance(joint, i, i) == pytest.approx(1.0, abs=1e-12)
            for j in (A, B, C):
                assert -1.0 - 1e-12 <= covariance(joint, i, j) <= 1.0 + 1e-12


class TestMarginalPlus:
    def test_uniform_is_half(self):
        assert marginal_plus(JointDistribution3.uniform(), B) == 0.5

    def test_point_mass_deterministic(self):
        joint = JointDistribution3.point_mass((1, -1, 1))
        assert marginal_plus(joint, B) == 0.0

    @given(joints)
    def test_matches_bruteforce(self, joint):
        for i in (A, B, C):
            assert marginal_plus(joint, i) == pytest.approx(
                oracle_marginal_plus(joint.weights, i), abs=1e-15
            )


class TestConditional:
    def test_perfect_correlation(self):
        assert conditional(PERFECT, (A, PLUS), (B, PLUS)) == 1.0

    def test_uniform_independence(self):
        assert conditional(JointDistribution3.uniform(), (A, PLUS), (C, PLUS)) == 0.5

    def test_zero_conditioning_event(self):
        joint = JointDistribution3.point_mass((-1, -1, -1))
        with pytest.raises(ZeroConditioningEvent):
            conditional(joint, (A, PLUS), (B, PLUS))

    @given(joints)
    def test_sums_to_one_over_target_outcomes(self, joint):
        for given_var in (A, B, C):
            for target_var in (A, B, C):
                if target_var == given_var:
                    continue
                try:
                    p_plus = conditional(joint, (target_var, PLUS), (given_var, PLUS))
                    p_minus = conditional(joint, (target_var, MINUS), (given_var, PLUS))
                except ZeroConditioningEvent:
                    continue
                assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


class TestRandomJoint:
    def test_deterministic_given_seed(self):
        j1 = random_joint(np.random.default_rng(123))
        j2 = random_joint(np.random.default_rng(123))
        assert j1.weights == j2.weights

    def test_draws_the_flat_dirichlet(self):
        # Every Dirichlet parameter is 1, so the draw is the same bits that
        # the former default concentration of 1.0 gave.
        drawn = random_joint(np.random.default_rng(7))
        expected = JointDistribution3(tuple(np.random.default_rng(7).dirichlet(np.full(8, 1.0))))
        assert drawn.weights == expected.weights

    def test_mean_weight_matches_dirichlet(self):
        rng = np.random.default_rng(42)
        mean = np.zeros(8)
        n = 10_000
        for _ in range(n):
            mean += random_joint(rng).as_array()
        mean /= n
        assert np.all(np.abs(mean - 0.125) < 0.01)

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_output_always_valid(self, seed):
        joint = random_joint(np.random.default_rng(seed))
        assert all(w >= 0.0 for w in joint.weights)
        assert math.fsum(joint.weights) == pytest.approx(1.0, abs=1e-12)


class TestSymmetrize:
    def test_point_mass_splits(self):
        sym = symmetrize(JointDistribution3.point_mass((1, 1, 1)))
        assert sym.atom((1, 1, 1)) == 0.5
        assert sym.atom((-1, -1, -1)) == 0.5

    def test_uniform_is_fixed_point(self):
        uniform = JointDistribution3.uniform()
        assert symmetrize(uniform).weights == uniform.weights

    @given(joints)
    def test_marginals_become_fair(self, joint):
        sym = symmetrize(joint)
        for i in (A, B, C):
            assert abs(marginal_plus(sym, i) - 0.5) < 1e-15

    @given(joints)
    def test_idempotent(self, joint):
        once = symmetrize(joint)
        twice = symmetrize(once)
        for w1, w2 in zip(once.weights, twice.weights):
            assert abs(w1 - w2) < 1e-15
