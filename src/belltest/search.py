"""Derivative-free searches over the two model spaces.

The quantum objective depends only on the angle gaps (b - a, c - a) because
a common rotation of all three questions leaves every transition probability
unchanged, so the search fixes a = 0 and exhausts a 2-D grid, then polishes
the best cell with a deterministic pattern search.

The classical side is certified empirically: the minimum conditional-form
margin over many symmetrized random laws, together with the symmetrized
simplex vertices, never drops measurably below zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ZeroConditioningEvent
from .inequalities import CondTriple, wigner_conditional_check
from .probability import (
    ATOMS,
    JointDistribution3,
    Outcome,
    VariableIndex,
    conditional,
    symmetrize,
)
from .qubit import QuestionTriple, predicted_conditional_triple

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi
_BLOCK_CELLS = 1 << 16  # grid cells or floor weights per block, so memory stays bounded


@dataclass(frozen=True)
class SearchResult:
    best_angles: QuestionTriple
    best_margin: float
    evaluations: int
    refinement_tolerance: float


def _margin_grid(beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Conditional-form margin at angles (0, beta, gamma), vectorized."""
    p1 = np.cos(0.5 * beta) ** 2          # p(a+ | b+)
    p2 = np.sin(0.5 * (gamma - beta)) ** 2  # p(c+ | b-)
    p3 = np.cos(0.5 * gamma) ** 2         # p(a+ | c+)
    return p1 + p2 - p3


def _margin_point(beta: float, gamma: float) -> float:
    triple = predicted_conditional_triple(QuestionTriple.from_floats(0.0, beta, gamma))
    return wigner_conditional_check(triple).margin


def maximize_quantum_violation(
    grid_steps: int = 360, refine_tol: float = 1e-9
) -> SearchResult:
    """Most negative predicted margin over question-angle gaps.

    Exhaustive grid over (b - a, c - a) in [0, 2*pi)^2, ties broken toward
    the lexicographically smallest gap pair, then compass pattern search
    with step halving down to refine_tol.
    """
    if grid_steps < 8:
        raise ValueError("grid_steps must be at least 8")
    if not 0.0 < refine_tol < np.inf:
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol!r}")

    gaps = np.arange(grid_steps) * (TWO_PI / grid_steps)
    rows = max(1, _BLOCK_CELLS // grid_steps)
    best_margin, flat = np.inf, 0
    for start in range(0, grid_steps, rows):
        margins = _margin_grid(gaps[start:start + rows, None], gaps)
        k = int(np.argmin(margins))  # row-major: first hit is lexicographic min
        if margins.flat[k] < best_margin:  # strict: earlier blocks win ties
            best_margin, flat = float(margins.flat[k]), start * grid_steps + k
    evaluations = grid_steps * grid_steps
    best = (gaps[flat // grid_steps], gaps[flat % grid_steps])

    # Compass pattern search on the gap pair.
    step = TWO_PI / grid_steps
    while step > refine_tol:
        moved = False
        for db, dg in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = (best[0] + db, best[1] + dg)
            m = _margin_point(*cand)
            evaluations += 1
            if m < best_margin:
                best, best_margin = cand, m
                moved = True
        if not moved:
            step *= 0.5

    angles = QuestionTriple.from_floats(0.0, best[0], best[1])
    # Re-evaluate through the public path so the reported margin matches it.
    final_margin = wigner_conditional_check(predicted_conditional_triple(angles)).margin
    return SearchResult(
        best_angles=angles,
        best_margin=final_margin,
        evaluations=evaluations,
        refinement_tolerance=refine_tol,
    )


class FloorCertificate(NamedTuple):
    min_margin: float
    samples_evaluated: int
    skipped: int


def _conditional_triple(joint: JointDistribution3) -> CondTriple:
    a_plus = (VariableIndex.A, Outcome.PLUS)
    return CondTriple(
        p_a_given_b_plus=conditional(joint, a_plus, (VariableIndex.B, Outcome.PLUS)),
        p_c_given_b_minus=conditional(
            joint, (VariableIndex.C, Outcome.PLUS), (VariableIndex.B, Outcome.MINUS)
        ),
        p_a_given_c_plus=conditional(joint, a_plus, (VariableIndex.C, Outcome.PLUS)),
    )


def classical_margin_floor(
    samples: int, rng: np.random.Generator | None = None
) -> FloorCertificate:
    """Minimum conditional-form margin over symmetrized classical laws.

    Evaluates `samples` symmetrized Dirichlet draws plus the symmetrizations
    of all 8 deterministic triples (the simplex vertices).  Laws with a
    zero-probability conditioning event are skipped and counted.
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    if samples > 0 and rng is None:
        raise ValueError("a random generator is required when samples > 0")

    margins: list[float] = []
    skipped = 0
    evaluated = 0
    for triple in ATOMS:
        sym = symmetrize(JointDistribution3.point_mass(triple))
        try:
            margins.append(wigner_conditional_check(_conditional_triple(sym)).margin)
            evaluated += 1
        except ZeroConditioningEvent:
            skipped += 1

    rows = _BLOCK_CELLS // 8  # alpha = 1 draws row by row: blocks keep rows and rng state
    for start in range(0, samples, rows):
        weights = rng.dirichlet(np.ones(8), size=min(rows, samples - start))
        weights = 0.5 * (weights + weights[:, ::-1])  # global sign flip = reverse
        # Marginals are exactly 1/2 after symmetrization, so the conditionals
        # reduce to doubled pair probabilities.
        p1 = 2.0 * weights[:, [0, 1]].sum(axis=1)  # P(a+, b+) / (1/2)
        p2 = 2.0 * weights[:, [2, 6]].sum(axis=1)  # P(c+, b-) / (1/2)
        p3 = 2.0 * weights[:, [0, 2]].sum(axis=1)  # P(a+, c+) / (1/2)
        margins.append(float(np.min(p1 + p2 - p3)))
    evaluated += samples

    if skipped:
        logger.warning("skipped %d laws with zero conditioning probability", skipped)
    return FloorCertificate(
        min_margin=min(margins), samples_evaluated=evaluated, skipped=skipped
    )
