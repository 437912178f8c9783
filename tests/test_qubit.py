import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from belltest import (
    BlochAngle,
    CondTriple,
    QuestionTriple,
    predicted_conditional_triple,
    wigner_conditional_check,
)
from belltest.qubit import second_yes

# Witness configuration with the most negative predicted margin: the
# conditional triple (1/4, 1/4, 3/4), margin -1/4, at gaps
# (b - a, c - a) = (2*pi/3, pi/3).
WITNESS = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)

angles = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestBlochAngle:
    def test_normalizes_into_range(self):
        assert BlochAngle(2 * math.pi + 0.5).phi == pytest.approx(0.5)
        assert BlochAngle(-0.5).phi == pytest.approx(2 * math.pi - 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BlochAngle(float("nan"))

    @pytest.mark.parametrize("x", [-1e-20, -1e-300, -5e-324])
    def test_tiny_negative_angle_is_zero(self, x):
        # x % (2*pi) rounds up to 2*pi itself, outside the range.
        angle = BlochAngle(x)
        assert 0.0 <= angle.phi < 2 * math.pi
        assert angle == BlochAngle(0.0)
        assert BlochAngle(angle.phi) == angle


class TestQuestionTriple:
    @pytest.mark.parametrize("fields", [(0.0, 1.0, 2.0), (BlochAngle(0.0), BlochAngle(1.0), 2.0),
                                        (0.0, BlochAngle(1.0), BlochAngle(2.0)),
                                        (BlochAngle(0.0), None, BlochAngle(2.0))])
    def test_rejects_non_angle_fields(self, fields):
        # A float field was accepted, and predicted_conditional_triple then
        # failed with AttributeError on its missing .phi.
        with pytest.raises(ValueError, match="must be a BlochAngle, got "):
            QuestionTriple(*fields)

    def test_from_floats_builds_angles(self):
        triple = QuestionTriple.from_floats(0.0, 1.0, 2.0 + 2 * math.pi)
        assert triple == QuestionTriple(BlochAngle(0.0), BlochAngle(1.0), BlochAngle(2.0))
        assert type(triple) is QuestionTriple
        assert [type(angle) for angle in triple] == [BlochAngle] * 3


class TestSecondYes:
    """``second_yes(first, second, answer)``: the chance of "yes" to the question
    at angle ``second`` after ``answer`` to the one at angle ``first``."""

    def test_identity(self):
        assert second_yes(1.3, 1.3, 1) == 1.0
        assert second_yes(1.3, 1.3, -1) == 0.0

    def test_orthogonality(self):
        assert second_yes(0.7, BlochAngle(0.7 + math.pi).phi, 1) == pytest.approx(0.0, abs=1e-30)
        assert second_yes(0.7, BlochAngle(0.7 + math.pi).phi, -1) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_gap(self):
        for answer in (1, -1):
            assert second_yes(0.0, math.pi / 2, answer) == pytest.approx(0.5, abs=1e-15)

    @given(angles, angles)
    def test_closed_form(self, x, y):
        bx, by = BlochAngle(x).phi, BlochAngle(y).phi
        assert second_yes(bx, by, 1) == pytest.approx(math.cos((by - bx) / 2) ** 2, abs=1e-15)
        assert second_yes(bx, by, -1) == pytest.approx(math.sin((by - bx) / 2) ** 2, abs=1e-15)

    @given(angles, angles)
    def test_born_normalization(self, x, y):
        bx, by = BlochAngle(x).phi, BlochAngle(y).phi
        total = second_yes(bx, by, 1) + second_yes(bx, BlochAngle(by + math.pi).phi, 1)
        assert total == pytest.approx(1.0, abs=1e-14)
        assert second_yes(bx, by, 1) + second_yes(bx, by, -1) == pytest.approx(1.0, abs=1e-15)

    @given(angles, angles)
    def test_no_is_yes_from_the_antipode(self, x, y):
        # After a "no" the state sits at first + pi, which second_yes never rounds.
        bx, by = BlochAngle(x).phi, BlochAngle(y).phi
        antipode = BlochAngle(bx + math.pi).phi
        assert second_yes(bx, by, -1) == pytest.approx(second_yes(antipode, by, 1), abs=1e-14)

    @given(angles, angles)
    def test_symmetry(self, x, y):
        bx, by = BlochAngle(x).phi, BlochAngle(y).phi
        for answer in (1, -1):
            assert second_yes(bx, by, answer) == pytest.approx(second_yes(by, bx, answer),
                                                               abs=1e-15)

    def test_arrays_equal_scalars_bit_for_bit(self):
        first, second = np.random.default_rng(1).uniform(0.0, 2 * math.pi, (2, 5000))
        for answer in (1, -1):
            scalar = [second_yes(f, s, answer) for f, s in zip(first.tolist(), second.tolist())]
            assert np.array_equal(second_yes(first, second, answer), scalar)


class TestPredictedConditionalTriple:
    @given(angles, angles, angles)
    def test_packed_triple_is_the_constructed_triple(self, a, b, c):
        # The triple is packed without CondTriple's range checks: each value
        # is the square of a sine or cosine at finite angles, in [0, 1].
        q = QuestionTriple.from_floats(a, b, c)
        triple = predicted_conditional_triple(q)
        a, b, c = q.a.phi, q.b.phi, q.c.phi
        built = CondTriple(*map(float, (second_yes(b, a, 1), second_yes(b, c, -1),
                                        second_yes(c, a, 1))))
        assert type(triple) is CondTriple and tuple(triple) == tuple(built)
        assert [type(p) for p in triple] == [float] * 3

    def test_rejects_a_non_triple(self):
        # Angles that are not BlochAngles need not be finite.
        fake = namedtuple("Angles", "a b c")(*[namedtuple("Angle", "phi")(math.nan)] * 3)
        with pytest.raises(ValueError, match="^q must be a QuestionTriple, got Angles"):
            predicted_conditional_triple(fake)

    def test_degenerate_questions(self):
        triple = predicted_conditional_triple(QuestionTriple.from_floats(0.1, 0.1, 0.1))
        assert tuple(triple) == pytest.approx((1.0, 0.0, 1.0), abs=1e-15)
        assert wigner_conditional_check(triple).margin == pytest.approx(0.0, abs=1e-14)

    def test_witness_triple_exact(self):
        triple = predicted_conditional_triple(WITNESS)
        assert tuple(triple) == pytest.approx((0.25, 0.25, 0.75), abs=1e-14)
        assert wigner_conditional_check(triple).margin == pytest.approx(
            -0.25, abs=1e-14
        )

    def test_intermediate_angles(self):
        # Frozen from a separate trig evaluation of the three terms at
        # (0, 2*pi/3, pi/2).
        triple = predicted_conditional_triple(
            QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 2)
        )
        assert tuple(triple) == pytest.approx(
            (0.25, 0.06698729810778063, 0.5), abs=1e-14
        )
        assert wigner_conditional_check(triple).margin == pytest.approx(
            -0.18301270189221935, abs=1e-14
        )

    def test_scalar_wrapper_equals_array_path_bit_for_bit(self):
        # ``** 2`` calls libm pow on a numpy scalar but multiplies on an
        # array, which parted the two by 1 ulp on 63 of these triples.
        angles = np.random.default_rng(0).uniform(0.0, 2 * math.pi, (20_000, 3))
        a, b, c = angles.T
        on_arrays = np.transpose([second_yes(b, a, 1), second_yes(b, c, -1), second_yes(c, a, 1)])
        scalar = [tuple(predicted_conditional_triple(QuestionTriple.from_floats(*row)))
                  for row in angles.tolist()]
        assert np.array_equal(on_arrays, scalar)
