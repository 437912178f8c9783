"""Finite classical probability machinery for three dichotomic variables.

The sample space has eight atoms, one per sign triple (s_a, s_b, s_c) with
each sign in {+1, -1}.  Atoms are kept in a fixed canonical order so that
serialized weight vectors are unambiguous:

    (+++, ++-, +-+, +--, -++, -+-, --+, ---)

i.e. index = 4*(s_a < 0) + 2*(s_b < 0) + (s_c < 0).

Each probability or covariance is one correctly rounded ``math.fsum`` over
the atoms (and signs) that tables built once at import pick for its events.
"""

from __future__ import annotations

import math
from enum import IntEnum
from functools import reduce
from itertools import product
from operator import add, itemgetter, mul

from .errors import ZeroConditioningEvent, is_integer, is_real, record, require_instance

NORMALIZATION_TOL = 1e-12


class Outcome(IntEnum):
    """A dichotomic answer: yes = +1, no = -1."""

    PLUS = +1
    MINUS = -1


class VariableIndex(IntEnum):
    """Which of the three questions a value refers to; ordered A < B < C."""

    A = 0
    B = 1
    C = 2


#: Canonical atom order, sign triples (s_a, s_b, s_c).
ATOMS: tuple[tuple[int, int, int], ...] = tuple(
    (1 - 2 * (k >> 2 & 1), 1 - 2 * (k >> 1 & 1), 1 - 2 * (k & 1)) for k in range(8)
)

#: SIGNS[v][k] = sign of variable v in atom k.
SIGNS: tuple[tuple[int, ...], ...] = tuple(zip(*ATOMS))

#: _WEIGHTS_WHERE[events](w) = w at the atoms where one or two (v, s) events hold: w[0:0] at none.
_WEIGHTS_WHERE = {
    e: itemgetter(*[k for k in range(8) if all(SIGNS[v][k] == s for v, s in e)] or [slice(0)])
    for n in (1, 2) for e in product(product(range(3), (1, -1)), repeat=n)
}
#: _SIGN_PRODUCTS[i, j][k] = SIGNS[i][k] * SIGNS[j][k].
_SIGN_PRODUCTS = {(i, j): tuple(map(mul, SIGNS[i], SIGNS[j])) for i in range(3) for j in range(3)}
_INTS = frozenset({int, VariableIndex, Outcome})  # index types that need no ``is_integer``


class JointDistribution3(record("JointDistribution3", "weights")):
    """A probability law on the 8 sign triples, in canonical atom order.

    Weights must be non-negative and sum to 1 within ``NORMALIZATION_TOL``;
    the constructor renormalizes exactly so downstream arithmetic can assume
    a unit total.
    """

    __slots__ = ()

    def __new__(cls, weights: tuple[float, ...]):
        if len(weights) != 8:
            raise ValueError(f"expected 8 atom weights, got {len(weights)}")
        w = list(map(float, weights))
        if not (min(w) >= 0.0 and sum(w) < math.inf):  # NaN fails the sum; loop names the atom
            for k, x in enumerate(w):
                if not 0.0 <= x < math.inf:
                    raise ValueError(f"atom {k} has invalid weight {x!r}")
        total = math.fsum(w)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {NORMALIZATION_TOL}")
        return super().__new__(cls, tuple([x / total for x in w]))

    @classmethod
    def uniform(cls) -> "JointDistribution3":
        return cls((0.125,) * 8)

    @classmethod
    def point_mass(cls, triple: tuple[int, int, int]) -> "JointDistribution3":
        return cls.from_atoms({triple: 1.0})

    @classmethod
    def from_atoms(cls, atoms: dict[tuple[int, int, int], float]) -> "JointDistribution3":
        w = [0.0] * 8
        for triple, weight in atoms.items():
            w[atom_index(triple)] = float(weight)
        return cls(tuple(w))


def atom_index(triple: tuple[int, int, int]) -> int:
    sa, sb, sc = triple
    if not all(s in (1, -1) for s in triple):
        raise ValueError(f"atom signs must be +1/-1, got {triple!r}")
    return 4 * (sa < 0) + 2 * (sb < 0) + (sc < 0)


def covariance(joint: JointDistribution3, i: VariableIndex, j: VariableIndex) -> float:
    """E[xi_i * xi_j] over the 8 atoms; always in [-1, 1]."""
    signs = _SIGN_PRODUCTS.get((i, j)) if is_integer(i) and is_integer(j) else None
    if signs is None:  # a bool or a float equal to an index would find its signs too
        raise ValueError(f"i and j must be variable indices in 0-2, got {i!r}, {j!r}")
    return math.fsum(map(mul, signs, joint.weights))


def event_probability(joint: JointDistribution3, *events: tuple[VariableIndex, Outcome]) -> float:
    """P(each of one or two (variable, outcome) events holds), exactly rounded."""
    try:
        weights_where = _WEIGHTS_WHERE[events]
        for v, s in events:  # a bool or a float equal to an index finds the same weights
            if not (type(v) in _INTS and type(s) in _INTS or is_integer(v) and is_integer(s)):
                raise KeyError
    except (KeyError, TypeError):  # TypeError: an unhashable event
        raise ValueError(f"events must be one or two (0-2, +1/-1) pairs, got {events!r}") from None
    return math.fsum(weights_where(joint.weights))


class CondTriple(record("CondTriple", "p_a_given_b_plus p_c_given_b_minus p_a_given_c_plus")):
    """The three conditional probabilities entering the conditional form."""

    __slots__ = ()

    def __new__(cls, p_a_given_b_plus: float, p_c_given_b_minus: float,
                p_a_given_c_plus: float):
        self = super().__new__(cls, p_a_given_b_plus, p_c_given_b_minus, p_a_given_c_plus)
        for name, p in zip(self._fields, self):
            if not (is_real(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        return self


def conditional(
    joint: JointDistribution3,
    target: tuple[VariableIndex, Outcome],
    given: tuple[VariableIndex, Outcome],
) -> float:
    """P(target | given); raises ZeroConditioningEvent when P(given) = 0."""
    p_given = event_probability(joint, given)
    if p_given == 0.0:
        j, oj = given
        raise ZeroConditioningEvent(
            f"P(xi_{VariableIndex(j).name.lower()} = {int(oj):+d}) = 0; conditional undefined"
        )
    return min(event_probability(joint, target, given) / p_given, 1.0)


def _flat_dirichlet(rng: np.random.Generator) -> list[float]:
    """``rng.dirichlet(np.ones(8))`` as Python floats, same bits and rng state:
    8 exponentials, each times 1 / their left-to-right sum."""
    draws = rng.standard_exponential(8).tolist()
    scale = 1.0 / reduce(add, draws)
    return [x * scale for x in draws]


def _normalized(w: list[float]) -> JointDistribution3:
    """``JointDistribution3(tuple(w))`` for 8 floats known to make a law, unchecked."""
    total = math.fsum(w)
    return tuple.__new__(JointDistribution3, (tuple([x / total for x in w]),))


def random_joint(rng: np.random.Generator) -> JointDistribution3:
    """Sample a joint law uniformly on the simplex of the 8 atom weights (a
    Dirichlet with every parameter 1).  Deterministic given the generator state."""
    import numpy as np
    require_instance("rng", rng, np.random.Generator)
    return _normalized(_flat_dirichlet(rng))


def symmetrize(joint: JointDistribution3) -> JointDistribution3:
    """Average the law with its global sign flip.

    The flip maps atom k to atom 7-k, so the result is invariant under
    negating all three variables and every marginal is exactly 1/2.
    """
    require_instance("joint", joint, JointDistribution3)  # so its weights make a law
    return _normalized([0.5 * (x + y) for x, y in zip(joint.weights, joint.weights[::-1])])
