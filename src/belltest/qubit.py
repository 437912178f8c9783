"""Minimal contextual agent model on the real Bloch circle.

A question is a direction phi on the circle; its "yes" eigenstate sits at
phi and its "no" eigenstate at phi + pi.  The chance that a state at angle
x answers a question at angle y with "yes" is cos^2((x - y) / 2).  Answering
collapses the state onto the eigenstate of the answer given, which is what
makes question order matter and lets the model step outside every single
classical joint law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import CondTriple
from .probability import Outcome

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BlochAngle:
    """A direction on the circle, normalized into [0, 2*pi)."""

    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"angle must be finite, got {self.phi!r}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)

    def antipode(self) -> "BlochAngle":
        return BlochAngle(self.phi + math.pi)


@dataclass(frozen=True)
class QuestionTriple:
    a: BlochAngle
    b: BlochAngle
    c: BlochAngle

    @classmethod
    def from_floats(cls, a: float, b: float, c: float) -> "QuestionTriple":
        return cls(BlochAngle(a), BlochAngle(b), BlochAngle(c))


@dataclass(frozen=True)
class RealQubitState:
    """Either a pure state at a definite angle, or the unpolarized mixture."""

    phi: BlochAngle | None

    @classmethod
    def pure(cls, angle: float | BlochAngle) -> "RealQubitState":
        if not isinstance(angle, BlochAngle):
            angle = BlochAngle(angle)
        return cls(angle)

    @property
    def is_unpolarized(self) -> bool:
        return self.phi is None


UNPOLARIZED = RealQubitState(None)


def born(x, y):
    """Born rule on the real circle: cos^2((x - y) / 2), on radians or arrays."""
    return np.cos(0.5 * (x - y)) ** 2


def predicted_conditionals(a, b, c):
    """p(a+|b+), p(c+|b-), p(a+|c+) for questions at angles a, b, c (or arrays).

    After a "yes" to b the state sits at b, so p(a+|b+) = cos^2((a-b)/2);
    after a "no" it sits at b + pi, so p(c+|b-) = sin^2((c-b)/2), kept in
    that form because born(b + pi, c) would round b + pi.
    """
    return born(a, b), np.sin(0.5 * (c - b)) ** 2, born(a, c)


def transition_probability(from_angle: BlochAngle, to_angle: BlochAngle) -> float:
    """Born rule between two directions; see ``born``."""
    return float(born(from_angle.phi, to_angle.phi))


def predicted_conditional_triple(q: QuestionTriple) -> CondTriple:
    """Analytic conditional probabilities for the two-question protocol."""
    return CondTriple(*map(float, predicted_conditionals(q.a.phi, q.b.phi, q.c.phi)))


def sample_sequential(
    state: RealQubitState,
    questions: list[BlochAngle],
    rng: np.random.Generator,
) -> list[Outcome]:
    """Ask the questions in order, collapsing the state after each answer."""
    if not questions:
        raise ValueError("need at least one question")
    answers: list[Outcome] = []
    current = state
    for q in questions:
        if current.is_unpolarized:
            p_yes = 0.5
        else:
            p_yes = transition_probability(current.phi, q)
        yes = rng.random() < p_yes
        answers.append(Outcome.PLUS if yes else Outcome.MINUS)
        current = RealQubitState(q if yes else q.antipode())
    return answers


def sequential_joint_probability(
    initial: RealQubitState, first: BlochAngle, second: BlochAngle
) -> float:
    """P(answer "yes" to `first`, then "yes" to `second`).

    Swapping the questions changes this value for pure initial states: the
    order-dependence witness of the collapse model.
    """
    if initial.is_unpolarized:
        p_first = 0.5
    else:
        p_first = transition_probability(initial.phi, first)
    return p_first * transition_probability(first, second)
