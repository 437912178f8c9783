"""Derivative-free searches over the two model spaces.

The quantum objective depends only on the angle gaps (b - a, c - a) because
a common rotation of all three questions leaves every transition probability
unchanged, so the search fixes a = 0 and exhausts a 2-D grid, then polishes
the best cell with a deterministic pattern search.

The classical floor is the conditional-form margin's minimum, 0, at the
symmetrized simplex vertices, checked on many symmetrized random laws too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import require_instance, require_int
from .probability import _flat_dirichlet
from .qubit import TWO_PI, QuestionTriple, predicted_conditionals

_BLOCK_CELLS = 1 << 16  # grid cells or floor weights per block, so memory stays bounded
#: The 8 deterministic laws (simplex vertices), one per row, in atom order.
_VERTICES = np.eye(8)


@dataclass(frozen=True)
class SearchResult:
    best_angles: QuestionTriple
    best_margin: float
    evaluations: int
    refinement_tolerance: float


def _margin(beta, gamma):
    """Predicted conditional-form margin at a = 0, gaps ``beta`` and ``gamma``
    (radians or arrays): the same operations as ``wigner_conditional_check``
    of ``predicted_conditional_triple``, so the same bits."""
    p1, p2, p3 = predicted_conditionals(0.0, beta % TWO_PI, gamma % TWO_PI)
    return p1 + p2 - p3


def maximize_quantum_violation(
    grid_steps: int = 360, refine_tol: float = 1e-9
) -> SearchResult:
    """Most negative predicted margin over question-angle gaps.

    Exhaustive grid over (b - a, c - a) in [0, 2*pi)^2, ties broken toward
    the lexicographically smallest gap pair, then compass pattern search
    with step halving down to refine_tol.
    """
    require_int("grid_steps", grid_steps, 8, np.inf, "an integer of at least 8")
    if isinstance(refine_tol, (bool, np.bool_)) or not 0.0 < refine_tol < np.inf:
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol!r}")

    gaps = np.arange(grid_steps) * (TWO_PI / grid_steps)
    rows = max(1, _BLOCK_CELLS // grid_steps)
    best_margin, flat = np.inf, 0
    for start in range(0, grid_steps, rows):
        margins = _margin(gaps[start:start + rows, None], gaps)
        k = int(np.argmin(margins))  # row-major: first hit is lexicographic min
        if margins.flat[k] < best_margin:  # strict: earlier blocks win ties
            best_margin, flat = float(margins.flat[k]), start * grid_steps + k
    evaluations = int(grid_steps) ** 2
    best = (gaps[flat // grid_steps], gaps[flat % grid_steps])

    # Compass pattern search on the gap pair.
    step = TWO_PI / grid_steps
    while step > refine_tol:
        moved = False
        for db, dg in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = (best[0] + db, best[1] + dg)
            m = _margin(*cand)
            evaluations += 1
            if m < best_margin:
                best, best_margin = cand, m
                moved = True
        if not moved:
            step *= 0.5

    return SearchResult(
        best_angles=QuestionTriple.from_floats(0.0, best[0], best[1]),
        best_margin=float(_margin(*best)),
        evaluations=evaluations,
        refinement_tolerance=refine_tol,
    )


class FloorCertificate(NamedTuple):
    min_margin: float
    samples_evaluated: int
    skipped: int


def _symmetrized_margins(weights: np.ndarray) -> np.ndarray:
    """Conditional-form margin of the symmetrization of each law (row) in
    ``weights``, whose columns are the 8 atoms in canonical order."""
    # Symmetrized atom k is 0.5 * (w_k + w_(7-k)), so marginals are exactly 1/2
    # and conditionals are doubled pair probabilities; only atoms 0, 1 (= 6), 2 enter.
    w0 = 0.5 * (weights[:, 0] + weights[:, 7])
    w1 = 0.5 * (weights[:, 1] + weights[:, 6])
    w2 = 0.5 * (weights[:, 2] + weights[:, 5])
    p1 = 2.0 * (w0 + w1)  # P(a+, b+) / (1/2)
    p2 = 2.0 * (w2 + w1)  # P(c+, b-) / (1/2), atoms 2 and 6
    p3 = 2.0 * (w0 + w2)  # P(a+, c+) / (1/2)
    return p1 + p2 - p3


def classical_margin_floor(
    samples: int, rng: np.random.Generator | None = None
) -> FloorCertificate:
    """Minimum conditional-form margin over symmetrized classical laws.

    Evaluates the symmetrizations of all 8 deterministic triples (the simplex
    vertices) plus ``samples`` symmetrized flat-Dirichlet draws from ``rng``,
    a ``np.random.Generator``.  The margin is linear in the 8 weights, so its
    minimum over the simplex is at a vertex: the vertex minimum of 0 is the
    exact floor, and a draw can fall below it only by rounding.  Symmetrized
    laws give every conditioning event probability 1/2: ``skipped`` is 0.
    """
    require_int("samples", samples, 0, np.inf, "a non-negative integer")
    if samples > 0 or rng is not None:
        require_instance("rng", rng, np.random.Generator)

    min_margin = float(np.min(_symmetrized_margins(_VERTICES)))
    rows = _BLOCK_CELLS // 8  # draws go row by row: blocks keep the rows and rng state
    for start in range(0, samples, rows):
        weights = _flat_dirichlet(rng, min(rows, samples - start))
        min_margin = min(min_margin, float(np.min(_symmetrized_margins(weights))))
    return FloorCertificate(min_margin=min_margin, samples_evaluated=int(samples) + 8, skipped=0)
