"""Minimal contextual agent model on the real Bloch circle.

A question is a direction phi on the circle; its "yes" eigenstate sits at
phi and its "no" eigenstate at phi + pi.  The chance that a state at angle
x answers a question at angle y with "yes" is cos^2((x - y) / 2).  Answering
collapses the state onto the eigenstate of the answer given, which is what
lets the model step outside every single classical joint law.  This module
holds the model's formulas on arrays; ``protocol.run_protocol`` is its one
simulator of collapsing agents.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import is_real, record, require_instance
from .probability import CondTriple

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


def born(x, y):
    """Born rule on the real circle: cos^2((x - y) / 2), on radians or arrays."""
    return np.square(np.cos(0.5 * (x - y)))


def born_after_no(q1, q2):
    """Chance of "yes" to q2 after "no" to q1: the state sits at q1 + pi, so
    sin^2((q2 - q1) / 2), kept in that form because born(q1 + pi, q2) would
    round q1 + pi."""
    return np.square(np.sin(0.5 * (q2 - q1)))


def predicted_conditionals(a, b, c):
    """p(a+|b+), p(c+|b-), p(a+|c+) for questions at angles a, b, c (or arrays).

    After a "yes" to b the state sits at b, so p(a+|b+) = cos^2((a-b)/2);
    after a "no", p(c+|b-) = sin^2((c-b)/2).
    """
    return born(a, b), born_after_no(b, c), born(a, c)


def predicted_conditional_triple(q: QuestionTriple) -> CondTriple:
    """Analytic conditional probabilities for the two-question protocol."""
    require_instance("q", q, QuestionTriple)  # finite angles: squares of sines in [0, 1]
    return tuple.__new__(CondTriple, map(float, predicted_conditionals(q.a.phi, q.b.phi, q.c.phi)))
