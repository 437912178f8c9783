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
counter-based random streams make the result independent of the blocks,
and each answer compares a 53-bit draw with ``ceil(p * 2**53)``.  A cached
plan per design names the branches with agents, whose streams alone are keyed.

A dataset is its cells, one per response: the code 4 * branch code + 2 *
first answer code + second answer code, an index into the (branch, first
answer, second answer) count table.  Each branch is one context: it fixes
the first question and the second after each answer, so each of the 20
codes is a response that some branch produces (see ``CELL_FIELDS``).  The
constructor counts the cells once, and that count is its check: it refuses
any other code.  The estimators, one per ``CONDITIONALS`` triple, and the
symmetry check read that flat table of 20 counts, which a list of cells, as a
short parsed file has, gets in plain Python, and an array by ``np.bincount``,
a block at a time.  numpy, ``qubit`` and ``streams`` are imported only where
the arrays, the quantum population and the kernel first need them, so
counting a parsed file loads none of them and a warm call imports nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import cache, cached_property, lru_cache, partial
from importlib import import_module
from itertools import accumulate, product
from operator import itemgetter
from typing import NamedTuple, Union

from .errors import (EmptyConditioningBranch, is_real, record, require_counts,
                     require_instance, require_int)
from .probability import CONDITIONALS, SIGNS, JointDistribution3, Outcome, VariableIndex

_numpy = cache(partial(import_module, "numpy"))  # on first use; no import statement after


class Branch(Enum):
    BA = "BA"
    BC = "BC"
    CA = "CA"
    S1 = "S1"
    S2 = "S2"


class DesignVariant(Enum):
    THREE_ENSEMBLE = "three"
    TWO_ENSEMBLE = "two"


class ProtocolDesign(record("ProtocolDesign", "variant n_per_branch")):
    __slots__ = ()

    def __new__(cls, variant: DesignVariant, n_per_branch: int):
        require_instance("variant", variant, DesignVariant)
        require_int("n_per_branch", n_per_branch, 1, math.inf, "an integer of at least 1")
        return super().__new__(cls, variant, n_per_branch)


# The populations declare no __slots__: the tables they build on first use are
# cached in the instance's __dict__, outside equality, hashing and repr.
class ClassicalHiddenVariable(record("ClassicalHiddenVariable", "joint")):
    """Each agent holds one fixed sign triple sampled from the joint law."""

    def __new__(cls, joint: JointDistribution3):
        require_instance("joint", joint, JointDistribution3)
        return super().__new__(cls, joint)

    @cached_property
    def _cdf_bits(self) -> np.ndarray:
        """The CDF at atoms 0-6 as draw thresholds; a draw past all seven selects atom 7."""
        return _kernel()[0].thresholds(_numpy().cumsum(self.joint.weights)[:7])


class QuantumUnpolarized(record("QuantumUnpolarized", "questions")):
    """Unpolarized agents answering projective questions with collapse: the
    first answer is "yes" with chance 1/2, and the state then sits on that
    answer's eigenstate, which sets the Born weight of the second."""

    def __new__(cls, questions: QuestionTriple):
        from .qubit import QuestionTriple
        require_instance("questions", questions, QuestionTriple)
        return super().__new__(cls, questions)

    @cached_property
    def _second_yes(self) -> np.ndarray:
        """Per route, 2 * branch code + first answer code: ``qubit.second_yes``."""
        from .qubit import second_yes
        angles = [angle.phi for angle in self.questions]  # indexed by VariableIndex
        return _numpy().array([second_yes(angles[q1], angles[q2], a1)
                               for _, q1, a1, q2, _ in CELL_FIELDS[::2]])

    @cached_property
    def _second_yes_bits(self) -> np.ndarray:
        """``_second_yes`` as draw thresholds (see ``streams.thresholds``)."""
        return _kernel()[0].thresholds(self._second_yes)


PopulationModel = Union[ClassicalHiddenVariable, QuantumUnpolarized]


_THREE, _TWO = DesignVariant
# Per branch, in ``Branch`` order: its design, its agents per ``n_per_branch``, its
# first question, and its second after a "yes" and after a "no" (VariableIndex
# values); only S1 routes by the answer.  S1 holds twice as many agents so its
# routed sub-ensembles are comparable in size to the dedicated branches.
_BRANCHES = ((_THREE, 1, 1, 0, 0), (_THREE, 1, 1, 2, 2), (_THREE, 1, 2, 0, 0),
             (_TWO, 2, 1, 0, 2), (_TWO, 1, 2, 0, 0))

#: Count table axes: branch (in enum order), first answer, second answer;
#: answer code 0 is +1 and code 1 is -1.
COUNT_SHAPE = (len(Branch), 2, 2)

#: The response fields of each cell, in flat (C) order of COUNT_SHAPE.
CELL_FIELDS: tuple[tuple[Branch, VariableIndex, Outcome, VariableIndex, Outcome], ...] = tuple(
    (branch, VariableIndex(first), a1, VariableIndex(second), a2)
    for branch, (_, _, first, *seconds) in zip(Branch, _BRANCHES)
    for a1, second in zip(Outcome, seconds) for a2 in Outcome
)
_CELLS = len(CELL_FIELDS)  # the cell codes are [0, _CELLS)
#: Agents per kernel call and cells per count; bounds the working memory of both.
_BLOCK = 1 << 16


class ResponseDataset:
    """Survey responses stored column-wise: ``cells`` holds one cell code (see
    ``CELL_FIELDS``) per response, as a list of ints or a one-dimensional array
    of integers, which the constructor counts once (a list without numpy); it raises
    ValueError naming the first row that holds no code in [0, 20), and for an
    array that is not one-dimensional.  A dataset holds no respondent ids:
    written out, its rows are ``r`` and the zero-padded row number.
    """

    def __init__(self, cells):
        # A copy, so that no write by the caller reaches the counts.
        self._cells, self._table = (_cell_list if isinstance(cells, list) else _cell_array)(cells)

    @property
    def cells(self) -> np.ndarray:
        """The cells as a read-only uint8 array, since the counts are kept; a
        list of cells becomes one when first read."""
        if isinstance(self._cells, list):
            self._cells = _numpy().array(self._cells, "uint8")
        view = self._cells.view()
        view.flags.writeable = False
        return view

    @cached_property
    def counts(self) -> np.ndarray:
        """Responses per cell, as an array of shape ``COUNT_SHAPE``."""
        return _numpy().array(self._table).reshape(COUNT_SHAPE)

    def __len__(self) -> int:
        return len(self._cells)


def _cell_list(cells: list) -> tuple[list, list[int]]:
    """A copy of ``cells`` and its count per code.  Raises ValueError naming the first
    element that is no int in [0, 20): a float or bool equal to a cell code would count as it."""
    if set(map(type, cells)) - {int} or not set(counter := Counter(cells)) <= set(range(_CELLS)):
        row = next(row for row, cell in enumerate(cells)
                   if type(cell) is not int or not 0 <= cell < _CELLS)
        raise _not_a_cell(row, cells[row])
    return list(cells), list(map(counter.__getitem__, range(_CELLS)))


def _cell_array(cells) -> tuple[np.ndarray, list[int]]:
    """``cells`` as a uint8 array that only the dataset holds (a view, or an
    array that is still writeable, is copied) and its responses per cell code.
    Raises ValueError for an array that is not one-dimensional, or naming the
    first row that holds no integer in [0, 20); a uint8 array's count is its check."""
    np = _numpy()
    array = np.asarray(cells)
    if array.ndim != 1:
        raise ValueError(f"cells must be a one-dimensional array, got shape {array.shape}")
    table = _bincount(array) if array.dtype.char == "B" else None
    if table is None or len(table) > _CELLS:  # a code >= 20 lengthens a uint8 count
        integers = array.dtype.kind in "iu"
        bad = (array < 0) | (array >= _CELLS) if integers else np.ones(len(array), bool)
        if bad.any():
            row = int(bad.argmax())
            raise _not_a_cell(row, array[row].item())
    if table is None or array.flags.writeable or not array.flags.owndata:
        array = array.astype(np.uint8)
    return array, (_bincount(array) if table is None else table).tolist()


def _bincount(array: np.ndarray) -> np.ndarray:
    """Responses per code of a uint8 ``array``, a block at a time, so that
    bincount's intp copy stays one block: 20 counts unless a code is >= 20."""
    np = _numpy()
    if len(array) <= _BLOCK:
        return np.bincount(array, minlength=_CELLS)
    table = np.zeros(256, np.intp)
    for start in range(0, len(array), _BLOCK):
        table += np.bincount(array[start:start + _BLOCK], minlength=256)
    return table if table[_CELLS:].any() else table[:_CELLS]


def _not_a_cell(row: int, value) -> ValueError:
    return ValueError(f"row {row} holds {value!r}, which is not a cell code in [0, {_CELLS})")


class FrequencyTable(record("FrequencyTable",
                            "nu_a_given_b_plus nu_c_given_b_minus nu_a_given_c_plus")):
    """Count-ratio estimates of the three conditionals, each as
    (numerator, denominator)."""

    __slots__ = ()

    def __new__(cls, nu_a_given_b_plus: tuple[int, int], nu_c_given_b_minus: tuple[int, int],
                nu_a_given_c_plus: tuple[int, int]):
        self = tuple.__new__(cls, (nu_a_given_b_plus, nu_c_given_b_minus, nu_a_given_c_plus))
        for num, den in self:
            require_counts(num, den)
        return self

    def proportions(self) -> tuple[float, float, float]:
        return tuple([num / den for num, den in self])


class SymmetryEntry(NamedTuple):
    question: VariableIndex
    plus_fraction: float
    n_first_asked: int
    flagged: bool


class SymmetryReport(NamedTuple):
    entries: tuple[SymmetryEntry, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return not any(e.flagged for e in self.entries)


# --- simulation -------------------------------------------------------------


# Per 8 * branch code + atom index: a classical agent's cell, the one of its
# branch whose two questions read the atom's signs.
_ATOM_CELL = [cell for code, atom in product(range(len(Branch)), range(8))
              for cell, (_, q1, a1, q2, a2) in enumerate(CELL_FIELDS[4 * code:][:4], 4 * code)
              if SIGNS[q1][atom] == a1 and SIGNS[q2][atom] == a2]


@cache
def _kernel() -> tuple:
    """Built on first use: ``streams``, whose functions the kernel looks up per call,
    atom cells, and the fair coin's 2**52."""
    from . import streams
    return streams, _numpy().array(_ATOM_CELL, "uint8"), streams.thresholds(0.5)



def _simulate_block(pop: PopulationModel, keys: np.ndarray, counts: np.ndarray,
                    base2: np.ndarray, base8: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Cells of agents in file order whose counter ``words`` have a row per draw slot;
    ``keys`` holds the stream key of each branch with agents, ``counts`` its agents in
    the block, ``base2`` and ``base8`` each agent's 2 and 8 * branch code (uint8).
    A quantum agent's cell is 2 * route + second answer code, all uint8."""
    streams, atom_cell, half = _kernel()
    if isinstance(pop, ClassicalHiddenVariable):  # inverse CDF: the atom of each draw
        first = streams.keyed_bits(keys.repeat(counts), words[0])
        return atom_cell.take(base8 + pop._cdf_bits.searchsorted(first, side="right"))
    first, second = streams.keyed_bits(keys.repeat(counts), words)
    route = base2 + (first >= half)  # unpolarized: a fair first answer
    return 2 * route + (second >= pop._second_yes_bits.take(route))


def _counts(*pattern) -> itemgetter:
    """The getter of a count table's entries at the cells whose fields start with
    ``pattern`` (None matches any); a tuple, as each pattern used here matches
    two cells or more."""
    return itemgetter(*(cell for cell, fields in enumerate(CELL_FIELDS)
                        if all(p in (None, f) for p, f in zip(pattern, fields))))


@lru_cache(maxsize=1)  # one block at most (1.1 MiB): a survey's last, or a replicate's only one
def _block_layout(sizes: tuple[int, ...], start: int, stop: int) -> tuple:
    """Read-only arrays of agents [start, stop) of a survey with ``sizes`` agents per
    branch code: the agents of each branch that has any, each agent's 2 and 8 *
    branch code, and the seed-free words (a row per draw slot)."""
    np, streams = _numpy(), _kernel()[0]
    ends = list(accumulate(sizes))
    starts = [end - size for end, size in zip(ends, sizes)]  # code c: rows [starts[c], ends[c])
    in_block = [max(0, min(end, stop) - max(first, start)) for first, end in zip(starts, ends)]
    codes = np.arange(len(Branch), dtype=np.uint8).repeat(in_block)
    indices = (np.arange(start, stop) - np.array(starts).repeat(in_block)).view(np.uint64)
    layout = (np.array([n for n, size in zip(in_block, sizes) if size]), 2 * codes, 8 * codes,
              streams.counter_words(indices, np.arange(2, dtype=np.uint64).reshape(2, 1)))
    for array in layout:
        array.flags.writeable = False
    return layout


@lru_cache(maxsize=8)
def _plan(variant: DesignVariant, n_per_branch: int) -> tuple:
    """A design's agents per branch code, their total, and the stream ids (branch
    code + 1) of the branches that hold agents, which are the only ones keyed."""
    sizes = tuple(k * int(n_per_branch) if v is variant else 0 for v, k, *_ in _BRANCHES)
    return sizes, sum(sizes), tuple(code + 1 for code, size in enumerate(sizes) if size)


def run_protocol(pop: PopulationModel, design: ProtocolDesign, seed: int) -> ResponseDataset:
    """Simulate the survey in one pass over its agents in file order, in blocks
    of ``_BLOCK`` agents that may span branches, in the calling process.
    ``seed`` must be an integer in [0, 2**64)."""
    require_instance("population", pop, ClassicalHiddenVariable, QuantumUnpolarized)
    require_instance("design", design, ProtocolDesign)
    require_int("seed", seed, 0, 2**64, "in [0, 2**64)")
    sizes, total, ids = _plan(*design)
    keys = _kernel()[0].stream_keys(seed, ids)
    if total <= _BLOCK:  # as in a replicate study: the kernel's own array, not a copy
        cells = _simulate_block(pop, keys, *_block_layout(sizes, 0, total))
    else:
        cells = _numpy().empty(total, dtype="uint8")
        for start in range(0, total, _BLOCK):
            stop = min(start + _BLOCK, total)
            cells[start:stop] = _simulate_block(pop, keys, *_block_layout(sizes, start, stop))
    cells.flags.writeable = False  # handed over to the dataset, which need not copy it
    return ResponseDataset(cells)


def infer_design(data: ResponseDataset) -> DesignVariant:
    """The design whose branches hold every response; three-ensemble for a
    dataset with none.  Raises ValueError when the branches mix designs."""
    table = data._table
    per_branch = [sum(table[cell:cell + 4]) for cell in range(0, len(table), 4)]
    variants = {variant for (variant, *_), n in zip(_BRANCHES, per_branch) if n}
    if len(variants) > 1:
        used = ", ".join(b.value for b, n in zip(Branch, per_branch) if n)
        raise ValueError("dataset mixes the three-ensemble and two-ensemble designs (branches"
                         f" {used}); test each design on its own")
    return next(iter(variants), _THREE)


# --- estimation -------------------------------------------------------------


# The estimated conditionals, one per ``CONDITIONALS`` triple: the counts of a
# second "yes" and of a second "no" after its first question and answer, and its label.
_CONDITIONALS = tuple((*(_counts(None, q1, a1, q2, a2) for a2 in Outcome),
                       f"{q2.name.lower()}|{q1.name.lower()}{'+-'[a1 < 0]}")
                      for q1, a1, q2 in CONDITIONALS)
# Per question that a branch asks first: the counts of a first "yes" and a first "no".
_FIRST_ANSWERS = tuple((q, _counts(None, q, 1), _counts(None, q, -1))
                       for q in sorted({q1 for _, q1, *_ in CELL_FIELDS}))


def estimate_frequencies(data: ResponseDataset) -> FrequencyTable:
    """The count-ratio estimators of the three conditional probabilities."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    table, ratios = data._table, []
    for plus_counts, minus_counts, label in _CONDITIONALS:
        plus, minus = sum(plus_counts(table)), sum(minus_counts(table))
        if plus + minus == 0:
            raise EmptyConditioningBranch(f"no respondent reached the {label} conditioning event")
        ratios.append((plus, plus + minus))
    return FrequencyTable(*ratios)


def check_symmetry(data: ResponseDataset, tolerance: float = 0.05) -> SymmetryReport:
    """Flag questions whose first-answer "yes" fraction strays from 1/2 by
    more than ``tolerance``, which must be a finite number >= 0, not a bool."""
    if not (is_real(tolerance) and 0.0 <= tolerance < math.inf):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if len(data) == 0:
        raise ValueError("dataset is empty")
    table, entries, new = data._table, [], tuple.__new__  # packs a record, no Python __new__
    for q, plus_counts, minus_counts in _FIRST_ANSWERS:
        plus = sum(plus_counts(table))
        n = plus + sum(minus_counts(table))
        if n:
            entries.append(new(SymmetryEntry, (q, plus / n, n, abs(plus / n - 0.5) > tolerance)))
    return new(SymmetryReport, (tuple(entries), tolerance))
