"""Minimal contextual agent model on the real Bloch circle.

A question is a direction phi on the circle; its "yes" eigenstate sits at
phi and its "no" eigenstate at phi + pi.  The chance that a state at angle
x answers a question at angle y with "yes" is cos^2((x - y) / 2).  Answering
collapses the state onto the eigenstate of the answer given, which is what
lets the model step outside every single classical joint law.  ``second_yes``
is the one formula of that collapse, on radians or arrays, and
``protocol.run_protocol`` is the model's one simulator of collapsing agents.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import is_real, record, require_instance
from .probability import CONDITIONALS, CondTriple

TWO_PI = 2.0 * math.pi


class BlochAngle(record("BlochAngle", "phi")):
    """A direction on the circle, normalized into [0, 2*pi)."""

    __slots__ = ()

    def __new__(cls, phi: float):
        if not (is_real(phi) and math.isfinite(phi)):
            raise ValueError(f"angle must be finite, got {phi!r}")
        phi = float(phi) % TWO_PI  # a tiny negative phi rounds up to TWO_PI
        return super().__new__(cls, 0.0 if phi == TWO_PI else phi)


class QuestionTriple(record("QuestionTriple", "a b c")):
    __slots__ = ()

    def __new__(cls, a: BlochAngle, b: BlochAngle, c: BlochAngle):
        self = super().__new__(cls, a, b, c)
        for name, angle in zip(self._fields, self):
            if not isinstance(angle, BlochAngle):
                raise ValueError(f"{name} must be a BlochAngle, got {angle!r}")
        return self

    @classmethod
    def from_floats(cls, a: float, b: float, c: float) -> "QuestionTriple":
        return tuple.__new__(cls, (BlochAngle(a), BlochAngle(b), BlochAngle(c)))


#: The questions of the most negative predicted margin, -1/4.  At a = 0 the margin is 1/2 + (cos x
#: + cos y + cos z)/2 for x = b, y = c - b - pi, z = pi - c, and as x + y + z = 0 the sum is
#: (|1 + e^{ix} + e^{i(x+y)}|^2 - 3)/2 >= -3/2, equal at (b, c) = (2pi/3, pi/3) and (4pi/3, 5pi/3).
#: A symmetrized classical law's margin is 2(w(++-) + w(--+)) >= 0, 0 at the six other vertices.
OPTIMUM = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)


def second_yes(first, second, first_answer):
    """Chance of "yes" to the question at angle ``second`` after ``first_answer`` (+1 or
    -1) to the one at ``first``, on radians or arrays: cos^2((second - first) / 2) after a
    "yes", as the state sits at ``first``, and sin^2 of the same half gap after a "no", as
    the state sits at first + pi, which is never rounded."""
    half = 0.5 * (second - first)
    root = np.cos(half) if first_answer > 0 else np.sin(half)
    return root * root  # not ``root ** 2``: on a numpy scalar that calls libm's pow


def predicted_conditional_triple(q: QuestionTriple) -> CondTriple:
    """Analytic conditional probabilities: ``second_yes`` on each of ``CONDITIONALS``."""
    require_instance("q", q, QuestionTriple)  # finite angles: squares of sines in [0, 1]
    angles = q.a.phi, q.b.phi, q.c.phi  # indexed by VariableIndex
    return tuple.__new__(CondTriple, [float(second_yes(angles[given], angles[target], answer))
                                      for given, answer, target in CONDITIONALS])
