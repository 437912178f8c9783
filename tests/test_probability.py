import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belltest import (
    ATOMS,
    CondTriple,
    JointDistribution3,
    Outcome,
    VariableIndex,
    ZeroConditioningEvent,
    conditional,
    covariance,
    event_probability,
    random_joint,
    symmetrize,
)
from belltest.probability import CONDITIONALS, SIGNS, _flat_dirichlet, atom_index

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

    @pytest.mark.parametrize("weights, message", [
        ((0.5, math.nan, -1.0, 0.5, 0, 0, 0, 0), "atom 1 has invalid weight nan"),
        ((0.5, 0.5, 0, 0, 0, 0, 0, math.nan), "atom 7 has invalid weight nan"),
        ((math.inf, 0, 0, 0, 0, 0, 0, 0), "atom 0 has invalid weight inf"),
        ((1.0, 0, 0, 0, 0, -math.inf, 0, 0), "atom 5 has invalid weight -inf"),
        ((0.25, 0.25, 0.25, 0.25, 0.25, 0, -0.25, 0), "atom 6 has invalid weight -0.25"),
    ])
    def test_names_the_first_invalid_atom(self, weights, message):
        with pytest.raises(ValueError) as exc:
            JointDistribution3(weights)
        assert str(exc.value) == message

    def test_accepts_negative_zero_and_reports_the_total(self):
        assert JointDistribution3((1.0, -0.0, 0, 0, 0, 0, 0, 0)).weights[0] == 1.0
        with pytest.raises(ValueError) as exc:
            JointDistribution3((0.5,) * 8)
        assert str(exc.value) == "weights sum to 4.0, not 1 within 1e-12"

    @pytest.mark.parametrize("weights", [(1e308, 1e308, 0, 0, 0, 0, 0, 0),
                                         (1.7976931348623157e308,) + (6e291,) * 7])
    def test_weights_past_the_float_range(self, weights):
        # math.fsum raised OverflowError on finite weights whose sum overflows,
        # the second set although its rounded left-to-right sum is finite.
        with pytest.raises(ValueError) as exc:
            JointDistribution3(weights)
        assert str(exc.value) == "weights sum to inf, not 1 within 1e-12"

    @pytest.mark.parametrize("triple", [(1, 0, 1), (True, 1, 1), (1, 1, False), (1.0, 1, -1),
                                        (1, -1.0, 1), (1, 1, np.float64(1.0))])
    def test_atom_index_rejects_unsigned_entries(self, triple):
        # A bool or a float equal to a sign found that sign's atom.
        with pytest.raises(ValueError, match="atom signs must be \\+1/-1"):
            atom_index(triple)

    def test_atom_index_accepts_integer_signs(self):
        assert atom_index((Outcome.MINUS, np.int64(1), -1)) == 5

    def test_point_mass_atom_lookup(self):
        joint = JointDistribution3.point_mass((1, -1, 1))
        assert joint.weights[atom_index((1, -1, 1))] == 1.0
        assert joint.weights[atom_index((1, 1, 1))] == 0.0


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


# Each scalar helper names its bad argument: a variable outside 0-2, an
# outcome other than +1/-1, or a count of events other than one or two.
COVARIANCE_ERROR = "i and j must be variable indices in 0-2, got"
EVENTS_ERROR = "events must be one or two"


@pytest.mark.parametrize("helper, args, message", [
    pytest.param(covariance, (A, -1), COVARIANCE_ERROR, id="covariance-j=-1"),
    pytest.param(covariance, (A, 3), COVARIANCE_ERROR, id="covariance-j=3"),
    pytest.param(covariance, (3, A), COVARIANCE_ERROR, id="covariance-i=3"),
    pytest.param(covariance, ([0], A), COVARIANCE_ERROR, id="covariance-unhashable"),
    pytest.param(event_probability, (), EVENTS_ERROR, id="no-events"),
    pytest.param(event_probability, ((A, PLUS), (B, PLUS), (C, PLUS)), EVENTS_ERROR,
                 id="three-events"),
    pytest.param(event_probability, ((3, PLUS),), EVENTS_ERROR, id="variable-3"),
    pytest.param(event_probability, ((-1, PLUS),), EVENTS_ERROR, id="variable-minus-1"),
    pytest.param(event_probability, ((A, 0),), EVENTS_ERROR, id="outcome-0"),
    pytest.param(event_probability, ((A, PLUS), (B, 2)), EVENTS_ERROR, id="second-outcome-2"),
    pytest.param(conditional, ((A, PLUS), (3, PLUS)), EVENTS_ERROR, id="conditional-given"),
    pytest.param(conditional, ((A, 0), (B, PLUS)), EVENTS_ERROR, id="conditional-target"),
    # A bool or a float equal to an index or an outcome hashes as that int does,
    # so each would find the int's table entry.
    pytest.param(covariance, (True, 2.0), COVARIANCE_ERROR, id="covariance-bool-and-float"),
    pytest.param(covariance, (A, False), COVARIANCE_ERROR, id="covariance-j-bool"),
    pytest.param(covariance, (1.0, C), COVARIANCE_ERROR, id="covariance-i-float"),
    pytest.param(event_probability, ((A, True),), EVENTS_ERROR, id="outcome-bool"),
    pytest.param(event_probability, ((False, PLUS),), EVENTS_ERROR, id="variable-bool"),
    pytest.param(event_probability, ((A, PLUS), (2.0, PLUS)), EVENTS_ERROR,
                 id="second-variable-float"),
    pytest.param(event_probability, ((A, -1.0),), EVENTS_ERROR, id="outcome-float"),
    pytest.param(conditional, ((A, PLUS), (B, True)), EVENTS_ERROR, id="conditional-given-bool"),
    pytest.param(conditional, ((0.0, PLUS), (B, PLUS)), EVENTS_ERROR,
                 id="conditional-target-float"),
])
def test_bad_arguments_raise_value_error(helper, args, message):
    with pytest.raises(ValueError, match=message):
        helper(PERFECT, *args)


@pytest.mark.parametrize("index", [np.int64, np.uint8])
def test_numpy_integers_name_the_events_their_values_do(index):
    w = (0.05, 0.1, 0.15, 0.2, 0.25, 0.1, 0.05, 0.1)
    joint = JointDistribution3(w)
    assert covariance(joint, index(0), index(2)) == covariance(joint, A, C)
    assert event_probability(joint, (index(1), PLUS), (C, MINUS)) == \
        event_probability(joint, (B, PLUS), (C, MINUS))
    assert conditional(joint, (index(0), PLUS), (index(2), PLUS)) == \
        conditional(joint, (A, PLUS), (C, PLUS))


class TestMarginalPlus:
    def test_uniform_is_half(self):
        assert event_probability(JointDistribution3.uniform(), (B, PLUS)) == 0.5

    def test_point_mass_deterministic(self):
        joint = JointDistribution3.point_mass((1, -1, 1))
        assert event_probability(joint, (B, PLUS)) == 0.0

    @given(joints)
    def test_matches_bruteforce(self, joint):
        for i in (A, B, C):
            assert event_probability(joint, (i, PLUS)) == pytest.approx(
                oracle_marginal_plus(joint.weights, i), abs=1e-15
            )


class TestConditional:
    def test_perfect_correlation(self):
        assert conditional(PERFECT, (A, PLUS), (B, PLUS)) == 1.0

    def test_uniform_independence(self):
        assert conditional(JointDistribution3.uniform(), (A, PLUS), (C, PLUS)) == 0.5

    def test_zero_conditioning_event(self):
        joint = JointDistribution3.point_mass((-1, -1, -1))
        with pytest.raises(ZeroConditioningEvent,
                           match=r"^P\(xi_b = \+1\) = 0; conditional undefined$"):
            conditional(joint, (A, PLUS), (B, PLUS))

    def test_zero_conditioning_event_on_plain_ints(self):
        # The events are looked up by value, so plain ints name the same event.
        joint = JointDistribution3.point_mass((-1, -1, -1))
        with pytest.raises(ZeroConditioningEvent, match=r"^P\(xi_b = \+1\) = 0"):
            conditional(joint, (0, 1), (1, 1))

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


class TestConditionals:
    def test_one_triple_per_cond_triple_field_in_order(self):
        # p_<target>_given_<given>_<plus|minus>, as the CondTriple fields spell them.
        names = [f"p_{target.name.lower()}_given_{given.name.lower()}_"
                 f"{'plus' if answer > 0 else 'minus'}" for given, answer, target in CONDITIONALS]
        assert names == list(CondTriple._fields)
        assert CONDITIONALS == ((B, PLUS, A), (B, MINUS, C), (C, PLUS, A))


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
            mean += np.asarray(random_joint(rng).weights)
        mean /= n
        assert np.all(np.abs(mean - 0.125) < 0.01)

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_output_always_valid(self, seed):
        joint = random_joint(np.random.default_rng(seed))
        assert all(w >= 0.0 for w in joint.weights)
        assert math.fsum(joint.weights) == pytest.approx(1.0, abs=1e-12)


# The events as callers pass them: (VariableIndex, Outcome) pairs.
EVENTS = [(v, s) for v in (A, B, C) for s in (PLUS, MINUS)]


def brute_probability(weights, *events):
    """P(all events hold), summed over the atoms by their signs in SIGNS."""
    return math.fsum(w for k, w in enumerate(weights) if all(SIGNS[v][k] == s for v, s in events))


def laws_to_check():
    """The 8 vertices, flat-Dirichlet laws, and laws with some atoms at 0."""
    rng = np.random.default_rng(2024)
    sparse = rng.exponential(size=(8, 8)) * (rng.random((8, 8)) < 0.5) + np.eye(8)
    laws = [(f"vertex{k}", JointDistribution3.point_mass(atom)) for k, atom in enumerate(ATOMS)]
    laws += [(f"dirichlet{i}", JointDistribution3(tuple(rng.dirichlet(np.ones(8)))))
             for i in range(16)]
    laws += [(f"sparse{i}", JointDistribution3(tuple(w / w.sum()))) for i, w in enumerate(sparse)]
    laws += [("perfect", PERFECT), ("uniform", JointDistribution3.uniform())]
    return [pytest.param(law, id=name) for name, law in laws]


class TestTablesMatchBruteForce:
    """The table-driven scalar maths equals a sum over SIGNS, bit for bit, for
    every event and every ordered pair of events, same-variable pairs included."""

    @pytest.fixture(params=laws_to_check())
    def joint(self, request):
        return request.param

    def test_single_events(self, joint):
        for event in EVENTS:
            assert event_probability(joint, event) == brute_probability(joint.weights, event)

    def test_event_pairs(self, joint):
        for first in EVENTS:
            for second in EVENTS:
                expected = brute_probability(joint.weights, first, second)
                assert event_probability(joint, first, second) == expected

    def test_conditionals(self, joint):
        for target in EVENTS:
            for given in EVENTS:
                p_given = brute_probability(joint.weights, given)
                if p_given == 0.0:
                    with pytest.raises(ZeroConditioningEvent):
                        conditional(joint, target, given)
                    continue
                both = brute_probability(joint.weights, target, given)
                assert conditional(joint, target, given) == min(both / p_given, 1.0)

    def test_covariances(self, joint):
        for i in (A, B, C):
            for j in (A, B, C):
                expected = math.fsum(SIGNS[i][k] * SIGNS[j][k] * w
                                     for k, w in enumerate(joint.weights))
                assert covariance(joint, i, j) == expected

    def test_same_variable_pairs(self, joint):
        # Opposite signs of one variable never hold together; equal signs
        # are the single event.
        for v in (A, B, C):
            assert event_probability(joint, (v, PLUS), (v, MINUS)) == 0.0
            assert (event_probability(joint, (v, MINUS), (v, MINUS))
                    == event_probability(joint, (v, MINUS)))


class TestFlatDirichlet:
    def test_random_joint_sequence_matches_dirichlet(self):
        rng, reference = np.random.default_rng(99), np.random.default_rng(99)
        for _ in range(10_000):
            expected = reference.dirichlet(np.ones(8))
            drawn = random_joint(rng)
            assert type(drawn) is JointDistribution3
            assert drawn.weights == JointDistribution3(tuple(expected)).weights
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_single_row_is_the_raw_dirichlet_row(self):
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2_000):
            assert _flat_dirichlet(rng) == reference.dirichlet(np.ones(8)).tolist()
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("rng", [None, "x", 7, np.random.RandomState(0)],
                             ids=["None", "str", "int", "RandomState"])
    def test_random_joint_rejects_non_generator(self, rng):
        with pytest.raises(ValueError, match="rng must be a Generator"):
            random_joint(rng)

    def test_random_state_is_rejected_before_a_draw(self):
        legacy = np.random.RandomState(3)
        with pytest.raises(ValueError):
            random_joint(legacy)
        assert legacy.random_sample() == np.random.RandomState(3).random_sample()


class TestSymmetrize:
    def test_point_mass_splits(self):
        sym = symmetrize(JointDistribution3.point_mass((1, 1, 1)))
        assert sym.weights[atom_index((1, 1, 1))] == 0.5
        assert sym.weights[atom_index((-1, -1, -1))] == 0.5

    def test_uniform_is_fixed_point(self):
        uniform = JointDistribution3.uniform()
        assert symmetrize(uniform).weights == uniform.weights

    @given(joints)
    def test_marginals_become_fair(self, joint):
        sym = symmetrize(joint)
        for i in (A, B, C):
            assert abs(event_probability(sym, (i, PLUS)) - 0.5) < 1e-15

    @given(joints)
    def test_packed_law_is_the_constructed_law(self, joint):
        # symmetrize packs its record without the constructor's checks; the
        # weights are still the constructor's, bit for bit.
        w = joint.weights
        built = JointDistribution3(tuple(0.5 * (w[k] + w[7 - k]) for k in range(8)))
        sym = symmetrize(joint)
        assert type(sym) is JointDistribution3 and sym.weights == built.weights

    def test_rejects_a_non_law(self):
        # It would have packed weights that sum to 4 into a law.
        fake = namedtuple("Law", "weights")((0.5,) * 8)
        with pytest.raises(ValueError, match="^joint must be a JointDistribution3, got Law"):
            symmetrize(fake)

    @given(joints)
    def test_idempotent(self, joint):
        once = symmetrize(joint)
        twice = symmetrize(once)
        for w1, w2 in zip(once.weights, twice.weights):
            assert abs(w1 - w2) < 1e-15
