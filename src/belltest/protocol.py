"""Two-question survey designs over classical or quantum-like populations.

Two designs are supported:

* three-ensemble: disjoint branches BA (ask b then a), BC (b then c) and
  CA (c then a), each with ``n_per_branch`` fresh agents;
* two-ensemble: branch S1 asks b first and routes "yes" answerers to
  question a and "no" answerers to question c; branch S2 asks c then a.
  S1 gets 2 * n_per_branch agents so its conditional sub-counts are
  comparable to the three-ensemble branches.

Classical agents carry one predetermined sign triple drawn from a joint
law, so their answers do not depend on question order.  Quantum agents
start unpolarized and collapse after each answer.  ``run_protocol`` makes
one pass over a survey's agents in file order, in fixed blocks of agents;
counter-based random streams make the result independent of the blocks.

A dataset is columnar: each response is one cell index into the count
tensor over (branch, first question, first answer, second question, second
answer).  The estimators and the symmetry check all read that tensor, which
one ``np.bincount`` builds once per dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Callable, Sequence, Union

import numpy as np

from .errors import EmptyConditioningBranch, require_instance, require_int
from .probability import ATOMS, JointDistribution3, Outcome, VariableIndex
from .qubit import QuestionTriple, born
from .streams import keyed_uniforms, stream_keys


class Branch(Enum):
    BA = "BA"
    BC = "BC"
    CA = "CA"
    S1 = "S1"
    S2 = "S2"


class DesignVariant(Enum):
    THREE_ENSEMBLE = "three"
    TWO_ENSEMBLE = "two"


@dataclass(frozen=True)
class ProtocolDesign:
    variant: DesignVariant
    n_per_branch: int

    def __post_init__(self):
        require_instance("variant", self.variant, DesignVariant)
        require_int("n_per_branch", self.n_per_branch, 1, math.inf, "an integer of at least 1")


@dataclass(frozen=True)
class ClassicalHiddenVariable:
    """Each agent holds one fixed sign triple sampled from the joint law."""

    joint: JointDistribution3

    def __post_init__(self):
        require_instance("joint", self.joint, JointDistribution3)


@dataclass(frozen=True)
class QuantumUnpolarized:
    """Unpolarized agents answering projective questions with collapse: the
    first answer is "yes" with chance 1/2, and the state then sits on that
    answer's eigenstate, which sets the Born weight of the second."""

    questions: QuestionTriple

    def __post_init__(self):
        require_instance("questions", self.questions, QuestionTriple)


PopulationModel = Union[ClassicalHiddenVariable, QuantumUnpolarized]


#: Count tensor axes: branch, first question, first answer, second question,
#: second answer.  Branches and questions keep their enum order; answer
#: code 0 is +1 and code 1 is -1.
COUNT_SHAPE = (len(Branch), 3, 2, 3, 2)

#: The response fields of each cell, in flat (C) order of COUNT_SHAPE.
CELL_FIELDS: tuple[tuple[Branch, VariableIndex, Outcome, VariableIndex, Outcome], ...] = tuple(
    product(Branch, VariableIndex, (Outcome.PLUS, Outcome.MINUS),
            VariableIndex, (Outcome.PLUS, Outcome.MINUS))
)


class ResponseDataset:
    """Survey responses stored column-wise: ``cells`` holds one uint8 cell
    index (see ``COUNT_SHAPE``) per response.  Respondent ids are a list,
    a function that builds that list when the ids are first needed, or
    ``None``: implicit (``r`` and the zero-padded row number), as simulated
    data has them.
    """

    def __init__(self, cells, ids: list[str] | Callable[[], list[str]] | None = None):
        self.cells, self._ids = np.asarray(cells, dtype=np.uint8), ids

    @property
    def implicit_ids(self) -> bool:
        return self._ids is None

    @property
    def respondent_ids(self) -> list[str]:
        if callable(self._ids):
            self._ids = self._ids()
        if self._ids is not None:
            return self._ids
        width = len(str(len(self.cells)))
        return list(map(f"r%0{width}d".__mod__, range(len(self.cells))))

    @cached_property
    def counts(self) -> np.ndarray:
        """Responses per cell, as an array of shape ``COUNT_SHAPE``."""
        return np.bincount(self.cells, minlength=len(CELL_FIELDS)).reshape(COUNT_SHAPE)

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class FrequencyTable:
    """Count-ratio estimates of the three conditionals, each as
    (numerator, denominator)."""

    nu_a_given_b_plus: tuple[int, int]
    nu_c_given_b_minus: tuple[int, int]
    nu_a_given_c_plus: tuple[int, int]

    def __post_init__(self):
        for num, den in (
            self.nu_a_given_b_plus,
            self.nu_c_given_b_minus,
            self.nu_a_given_c_plus,
        ):
            if not (0 <= num <= den and den >= 1):
                raise ValueError(f"invalid counts ({num}, {den})")

    def proportions(self) -> tuple[float, float, float]:
        return (
            self.nu_a_given_b_plus[0] / self.nu_a_given_b_plus[1],
            self.nu_c_given_b_minus[0] / self.nu_c_given_b_minus[1],
            self.nu_a_given_c_plus[0] / self.nu_a_given_c_plus[1],
        )


@dataclass(frozen=True)
class SymmetryEntry:
    question: VariableIndex
    plus_fraction: float
    n_first_asked: int
    flagged: bool


@dataclass(frozen=True)
class SymmetryReport:
    entries: tuple[SymmetryEntry, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return not any(e.flagged for e in self.entries)


# --- simulation -------------------------------------------------------------


def _draw_atoms(joint: JointDistribution3, u: np.ndarray) -> np.ndarray:
    """The atom index that each uniform in ``u`` selects under ``joint``
    (inverse CDF over the canonical atom order)."""
    return np.searchsorted(np.cumsum(joint.weights), u, side="right").clip(max=7)


# Per branch code (BA, BC, CA, S1, S2): the first question, then the second
# after a "yes" and after a "no" (VariableIndex values); only S1 routes by the
# answer.  Per route, 2 * branch code + first answer code: the second question
# and the cell of a second "yes" (a second "no" is the next cell).
_QUESTIONS = np.array([(1, 0, 0), (1, 2, 2), (2, 0, 0), (1, 0, 2), (2, 0, 0)], dtype=np.uint8)
_FIRST_Q, _SECOND_Q = _QUESTIONS[:, 0], _QUESTIONS[:, 1:].ravel()
_CODES = np.arange(len(Branch), dtype=np.uint8)
_ROUTE_CELL = np.ravel_multi_index((_CODES.repeat(2), _FIRST_Q.repeat(2), np.tile([0, 1], 5),
                                    _SECOND_Q, 0), COUNT_SHAPE).astype(np.uint8)

#: Agents per kernel call; bounds the simulation's working memory.
_BLOCK = 1 << 16

# Draw slots in an agent's stream: first answer, second answer.
_DRAWS = np.arange(2, dtype=np.uint64).reshape(2, 1)  # a column: one row per slot


def _simulate_block(pop: PopulationModel, keys: np.ndarray, codes: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
    """Cells of the agents with branch ``codes`` (uint8) at within-branch
    ``indices`` (uint64); ``keys`` holds each branch code's stream key."""
    agent_keys = keys[codes]
    if isinstance(pop, ClassicalHiddenVariable):
        u_first = keyed_uniforms(agent_keys, indices, _DRAWS[0])
        atoms = _draw_atoms(pop.joint, u_first).astype(np.uint8)
        # Bit 2 - q of an atom index is set where question q's sign is -1.
        route = 2 * codes + ((atoms >> (2 - _FIRST_Q[codes])) & 1)
        second_no = (atoms >> (2 - _SECOND_Q[route])) & 1
    else:
        q = pop.questions
        angles = np.array([q.a.phi, q.b.phi, q.c.phi])  # indexed by VariableIndex
        u_first, u_second = keyed_uniforms(agent_keys, indices, _DRAWS)
        route = 2 * codes + (u_first >= 0.5)  # unpolarized: a fair first answer
        # State after the first answer: q1 for "yes", q1 + pi for "no".
        state = np.add.outer(angles[_FIRST_Q], (0.0, np.pi)).ravel()  # per route
        second_no = u_second >= born(state, angles[_SECOND_Q])[route]
    return _ROUTE_CELL[route] + second_no


# Per design: agents per ``n_per_branch`` in each branch code; its branches
# are those with agents.  S1 holds twice as many so its routed sub-ensembles
# are comparable in size to the dedicated branches.
_DESIGN_SIZES = {DesignVariant.THREE_ENSEMBLE: np.array([1, 1, 1, 0, 0]),
                 DesignVariant.TWO_ENSEMBLE: np.array([0, 0, 0, 2, 1])}


#: The cells a survey can produce: each branch's own question order.
CONSISTENT_CELLS = frozenset(_ROUTE_CELL.tolist() + (_ROUTE_CELL + 1).tolist())


def run_protocol(pop: PopulationModel, design: ProtocolDesign, seed: int) -> ResponseDataset:
    """Simulate the survey in one pass over its agents in file order, in blocks
    of ``_BLOCK`` agents that may span branches, in the calling process.
    ``seed`` must be an integer in [0, 2**64)."""
    require_instance("population", pop, ClassicalHiddenVariable, QuantumUnpolarized)
    require_instance("design", design, ProtocolDesign)
    require_int("seed", seed, 0, 2**64, "in [0, 2**64)")
    sizes = _DESIGN_SIZES[design.variant] * int(design.n_per_branch)
    ends = np.cumsum(sizes)
    starts = ends - sizes  # branch code c holds rows [starts[c], ends[c])
    keys = stream_keys(seed, _CODES + np.uint64(1))  # stream ids 1 to 5 by branch code
    cells = np.empty(int(ends[-1]), dtype=np.uint8)
    for start in range(0, len(cells), _BLOCK):
        stop = min(start + _BLOCK, len(cells))
        in_block = (np.minimum(ends, stop) - np.maximum(starts, start)).clip(min=0)
        indices = (np.arange(start, stop) - starts.repeat(in_block)).view(np.uint64)
        cells[start:stop] = _simulate_block(pop, keys, _CODES.repeat(in_block), indices)
    return ResponseDataset(cells)


def infer_design(data: ResponseDataset) -> DesignVariant:
    """The design whose branches hold every response; three-ensemble for a
    dataset with none.  Raises ValueError when the branches mix designs."""
    per_branch = data.counts.sum(axis=(1, 2, 3, 4))
    for variant, sizes in _DESIGN_SIZES.items():
        if not per_branch[sizes == 0].any():
            return variant
    used = ", ".join(b.value for b, n in zip(Branch, per_branch) if n)
    raise ValueError("dataset mixes the three-ensemble and two-ensemble designs (branches"
                     f" {used}); test each design on its own")


# --- estimation -------------------------------------------------------------


def estimate_frequencies(data: ResponseDataset) -> FrequencyTable:
    """The count-ratio estimators of the three conditional probabilities."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    pooled = data.counts.sum(axis=0)  # over branches
    ratios = []
    for q1, a1, q2, label in (
        (VariableIndex.B, 0, VariableIndex.A, "a|b+"),
        (VariableIndex.B, 1, VariableIndex.C, "c|b-"),
        (VariableIndex.C, 0, VariableIndex.A, "a|c+"),
    ):
        plus, minus = pooled[q1, a1, q2].tolist()
        if plus + minus == 0:
            raise EmptyConditioningBranch(
                f"no respondent reached the {label} conditioning event"
            )
        ratios.append((plus, plus + minus))
    return FrequencyTable(*ratios)


def check_symmetry(data: ResponseDataset, tolerance: float = 0.05) -> SymmetryReport:
    """Flag questions whose first-answer "yes" fraction strays from 1/2 by
    more than ``tolerance``, which must be finite and >= 0."""
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if len(data) == 0:
        raise ValueError("dataset is empty")
    by_answer = data.counts.sum(axis=(0, 3, 4))  # (first q, first answer)
    entries = tuple(
        SymmetryEntry(
            question=q,
            plus_fraction=plus / n,
            n_first_asked=n,
            flagged=abs(plus / n - 0.5) > tolerance,
        )
        for q, plus, n in zip(VariableIndex, by_answer[:, 0].tolist(),
                              by_answer.sum(axis=1).tolist())
        if n
    )
    return SymmetryReport(entries=entries, tolerance=tolerance)


# --- paired hidden-variable sampling ----------------------------------------

Triple = tuple[int, int, int]


def sample_entangled_pairs(
    joint: JointDistribution3, n: int, rng: np.random.Generator
) -> list[tuple[Triple, Triple]]:
    """Draw n sign triples and emit each one twice, mimicking perfectly
    correlated pair preparation."""
    return [(ATOMS[k], ATOMS[k]) for k in _draw_atoms(joint, rng.random(n))]


def check_perfect_correlation(pairs: Sequence[tuple[Triple, Triple]]) -> bool:
    """True iff both members of every pair agree on all three components."""
    return all(left == right for left, right in pairs)
