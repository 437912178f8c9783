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
start unpolarized and collapse after each answer.

A dataset is columnar: each response is one cell index into the count
tensor over (branch, first question, first answer, second question, second
answer).  The estimators and the symmetry check all read that tensor, which
one ``np.bincount`` builds once per dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Callable, Sequence, Union

import numpy as np

from .errors import EmptyConditioningBranch
from .inequalities import validate_tolerance
from .probability import ATOMS, JointDistribution3, Outcome, VariableIndex
from .qubit import TWO_PI, QuestionTriple, born
from .streams import counter_uniforms


class Branch(Enum):
    BA = "BA"
    BC = "BC"
    CA = "CA"
    S1 = "S1"
    S2 = "S2"


# Draw slots within an agent's stream.
_DRAW_FIRST = 0
_DRAW_SECOND = 1
_DRAW_ANGLE = 2


class DesignVariant(Enum):
    THREE_ENSEMBLE = "three"
    TWO_ENSEMBLE = "two"


@dataclass(frozen=True)
class ProtocolDesign:
    variant: DesignVariant
    n_per_branch: int

    def __post_init__(self):
        if not isinstance(self.variant, DesignVariant):
            raise ValueError(f"variant must be a DesignVariant, got {self.variant!r}")
        if not isinstance(self.n_per_branch, int):
            raise ValueError(f"n_per_branch must be an int, got {self.n_per_branch!r}")
        if self.n_per_branch < 1:
            raise ValueError("n_per_branch must be at least 1")


@dataclass(frozen=True)
class ClassicalHiddenVariable:
    """Each agent holds one fixed sign triple sampled from the joint law."""

    joint: JointDistribution3


@dataclass(frozen=True)
class QuantumUnpolarized:
    """Unpolarized agents answering projective questions with collapse.

    ``draw_initial_angle`` switches from the fair-coin shortcut to drawing
    each agent's pure angle uniformly; the two paths are statistically
    equivalent for these measurements.
    """

    questions: QuestionTriple
    draw_initial_angle: bool = False


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
            if not (0 <= num <= den):
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
    return np.searchsorted(np.cumsum(joint.as_array()), u, side="right").clip(max=7)


def _simulate_chunk(
    pop: PopulationModel,
    branch: Branch,
    seed: int,
    indices: np.ndarray,
) -> np.ndarray:
    """Cells (see ``COUNT_SHAPE``) of the agents at ``indices`` in one branch."""
    code = list(Branch).index(branch)
    stream = code + 1  # counter-RNG stream ids are 1 to 5 in branch order
    u_first = counter_uniforms(seed, stream, indices, _DRAW_FIRST)
    first_q, after_yes, after_no = _BRANCH_QUESTIONS[branch]

    if isinstance(pop, ClassicalHiddenVariable):
        signs = np.asarray(ATOMS)[_draw_atoms(pop.joint, u_first)]  # (n, 3)
        first_plus = signs[:, first_q] > 0
        second_code = np.where(first_plus, after_yes, after_no)
        second_plus = np.take_along_axis(
            signs, second_code.reshape(-1, 1), axis=1
        ).ravel() > 0
    else:
        q = pop.questions
        angles = np.array([q.a.phi, q.b.phi, q.c.phi])  # indexed by VariableIndex
        if pop.draw_initial_angle:
            phi0 = TWO_PI * counter_uniforms(seed, stream, indices, _DRAW_ANGLE)
            p_first = born(phi0, angles[first_q])
        else:
            p_first = 0.5
        first_plus = u_first < p_first
        second_code = np.where(first_plus, after_yes, after_no)
        # State after the first answer: q1 for "yes", q1 + pi for "no".
        state = np.where(first_plus, angles[first_q], angles[first_q] + np.pi)
        p_second = born(state, angles[second_code])
        u_second = counter_uniforms(seed, stream, indices, _DRAW_SECOND)
        second_plus = u_second < p_second
    fields = (code, first_q, ~first_plus, second_code, ~second_plus)
    return np.ravel_multi_index(fields, COUNT_SHAPE).astype(np.uint8)


# Per branch: the first question, then the second after a "yes" and after a
# "no".  Only S1 routes by the answer.
_BRANCH_QUESTIONS = {
    Branch.BA: (VariableIndex.B, VariableIndex.A, VariableIndex.A),
    Branch.BC: (VariableIndex.B, VariableIndex.C, VariableIndex.C),
    Branch.CA: (VariableIndex.C, VariableIndex.A, VariableIndex.A),
    Branch.S1: (VariableIndex.B, VariableIndex.A, VariableIndex.C),
    Branch.S2: (VariableIndex.C, VariableIndex.A, VariableIndex.A),
}


# Per design: its branches, each with its agents per ``n_per_branch``.  S1
# holds twice as many so its routed sub-ensembles are comparable in size to
# the dedicated branches.
_DESIGN_BRANCHES = {
    DesignVariant.THREE_ENSEMBLE: {Branch.BA: 1, Branch.BC: 1, Branch.CA: 1},
    DesignVariant.TWO_ENSEMBLE: {Branch.S1: 2, Branch.S2: 1},
}


#: The cells a survey can produce: each branch's own question order.
CONSISTENT_CELLS = frozenset(
    cell for cell, (b, q1, a1, q2, _) in enumerate(CELL_FIELDS)
    if q1 is _BRANCH_QUESTIONS[b][0] and q2 is _BRANCH_QUESTIONS[b][1 + (a1 is Outcome.MINUS)]
)


def run_protocol(
    pop: PopulationModel,
    design: ProtocolDesign,
    seed: int,
    workers: int = 1,
) -> ResponseDataset:
    """Simulate the full survey, one vectorised kernel call per branch.

    ``workers`` must be at least 1 and has no effect on the result.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return ResponseDataset(np.concatenate([
        _simulate_chunk(pop, branch, seed, np.arange(k * design.n_per_branch, dtype=np.uint64))
        for branch, k in _DESIGN_BRANCHES[design.variant].items()
    ]))


def infer_design(data: ResponseDataset) -> DesignVariant:
    """The design whose branches hold every response; three-ensemble for a
    dataset with none.  Raises ValueError when the branches mix designs."""
    used = [branch for branch, n in zip(Branch, data.counts.sum(axis=(1, 2, 3, 4))) if n]
    for variant, branches in _DESIGN_BRANCHES.items():
        if branches.keys() >= set(used):
            return variant
    raise ValueError("dataset mixes the three-ensemble and two-ensemble designs (branches"
                     f" {', '.join(b.value for b in used)}); test each design on its own")


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


def check_symmetry(data: ResponseDataset, tolerance: float) -> SymmetryReport:
    """Flag questions whose first-answer "yes" fraction strays from 1/2."""
    validate_tolerance(tolerance)
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
