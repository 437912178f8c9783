"""Brute-force checks of the two closed forms that ``qubit.OPTIMUM`` states.

The quantum objective depends only on the angle gaps (b - a, c - a) because
a common rotation of all three questions leaves every transition probability
unchanged, so the search fixes a = 0 and exhausts a 2-D grid, then polishes
the best cell with a deterministic pattern search.

The classical floor, 0, is checked on the symmetrized simplex vertices and
on many symmetrized random laws, each scored in that closed form from its
unnormalised exponentials, so none can fall below 0, in work arrays
allocated once per call: the floor's cost is mostly its draws.

Both sweeps use two threads, as numpy releases the GIL in their array work.
Grid blocks hold half the cells, so the two in flight hold what one did, and
a tie between blocks goes to the lower cell; the floor scores a block while
the calling thread, the generator's only user, draws the next into a second
buffer.  So thread timing moves no bit of either result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import is_real, require_instance, require_int
from .probability import atom_index
from .qubit import TWO_PI, QuestionTriple, predicted_conditionals

_BLOCK_CELLS = 1 << 16  # grid cells or floor weights per block, so memory stays bounded
_MAX_GRID_STEPS = 1 << 16  # one grid row fits in a block, so memory stays bounded
#: The 8 deterministic laws (simplex vertices), one per row, in atom order.
_VERTICES = np.eye(8)
#: The atoms ++- and --+, whose weights make up the symmetrized margin.
_PPM, _MMP = atom_index((1, 1, -1)), atom_index((-1, -1, 1))


class SearchResult(NamedTuple):
    best_angles: QuestionTriple
    best_margin: float
    evaluations: int


def _margin(beta, gamma):
    """Predicted conditional-form margin at a = 0, gaps ``beta`` and ``gamma``
    (radians or arrays): the same operations as ``wigner_conditional_check``
    of ``predicted_conditional_triple``, so the same bits."""
    p1, p2, p3 = predicted_conditionals(0.0, beta % TWO_PI, gamma % TWO_PI)
    return p1 + p2 - p3


def maximize_quantum_violation(grid_steps: int = 360, refine_tol: float = 1e-9) -> SearchResult:
    """Most negative predicted margin over question-angle gaps.

    Exhaustive grid over (b - a, c - a) in [0, 2*pi)^2, keeping the first
    strict minimum of the rounded margins in row-major order, then compass
    pattern search with step halving down to refine_tol.  The rounded margins
    of the two optima, (2*pi/3, pi/3) and (4*pi/3, 5*pi/3), can differ in the
    last bit, so the grid decides which one is returned: 360 gives the first,
    8, 42 and 500 the second.
    """
    require_int("grid_steps", grid_steps, 8, np.inf, "an integer of at least 8")
    require_int("grid_steps", grid_steps, 8, _MAX_GRID_STEPS + 1, f"at most {_MAX_GRID_STEPS}")
    if not (is_real(refine_tol) and 0.0 < refine_tol < np.inf):
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol!r}")

    gaps = np.arange(grid_steps) * (TWO_PI / grid_steps)
    rows = max(1, _BLOCK_CELLS // 2 // grid_steps)  # half a block: two are in flight

    def block_minimum(start):
        margins = _margin(gaps[start:start + rows, None], gaps)
        k = int(np.argmin(margins))  # row-major: the block's first minimum
        return float(margins.flat[k]), start * grid_steps + k

    starts = range(0, grid_steps, rows)  # a tie goes to the lower cell, whichever ends first
    with ThreadPoolExecutor(2) as pool:  # 32 blocks submitted at a time: few futures alive
        best_margin, flat = min(min(pool.map(block_minimum, starts[i:i + 32]))
                                for i in range(0, len(starts), 32))
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
                best, best_margin, moved = cand, m, True
        if not moved:
            step *= 0.5

    return SearchResult(QuestionTriple.from_floats(0.0, *best), float(_margin(*best)), evaluations)


class FloorCertificate(NamedTuple):
    min_margin: float
    samples_evaluated: int


def classical_margin_floor(
    samples: int, rng: np.random.Generator | None = None
) -> FloorCertificate:
    """Minimum conditional-form margin over symmetrized classical laws.

    Evaluates the symmetrizations of all 8 deterministic triples (the simplex
    vertices) plus ``samples`` symmetrized flat-Dirichlet draws from ``rng``,
    a ``np.random.Generator``, which ends where ``rng.dirichlet(np.ones(8),
    samples)`` would.  The margin is linear in the 8 weights, so its minimum
    over the simplex is at a vertex: the vertex minimum of 0 is the exact
    floor, and a ratio of non-negative numbers cannot fall below it.
    """
    require_int("samples", samples, 0, np.inf, "a non-negative integer")
    if samples > 0 or rng is not None:
        require_instance("rng", rng, np.random.Generator)

    rows = _BLOCK_CELLS // 8  # draws go row by row: blocks keep the rows and rng state
    size = max(rows, len(_VERTICES))
    draws = [np.empty((size, 8)) for _ in range(2)]
    work = [np.empty(shape) for shape in ((size, 4), (size, 2), size)]
    # Draw block k into one buffer while the helper scores block k - 1 in the other.
    with ThreadPoolExecutor(1) as pool:
        scored, minima = pool.submit(_closed_form_margins, _VERTICES, *work), []
        for k, start in enumerate(range(0, samples, rows)):
            block = rng.standard_exponential(out=draws[k % 2][:min(rows, samples - start)])
            minima.append(float(np.min(scored.result())))
            scored = pool.submit(_closed_form_margins, block, *work)
        minima.append(float(np.min(scored.result())))
    return FloorCertificate(min_margin=min(minima), samples_evaluated=int(samples) + 8)


def _closed_form_margins(x, quads, pairs, sums):
    """Symmetrized margins 2 * (w(++-) + w(--+)) of the rows of 8 exponentials
    in ``x`` (a flat-Dirichlet law is a row over its sum), in the first
    ``len(x)`` rows of work arrays of 4, 2 and 1 columns.
    The row sum is the tree ``x.sum(axis=1)`` computes for 8 columns, so the
    margins have its bits with no reduction call per row.
    """
    quads, pairs, sums = quads[:len(x)], pairs[:len(x)], sums[:len(x)]
    np.add(x[:, 0::2], x[:, 1::2], out=quads)
    np.add(quads[:, 0::2], quads[:, 1::2], out=pairs)
    np.add(pairs[:, 0], pairs[:, 1], out=sums)
    numerator = np.add(x[:, _PPM], x[:, _MMP], out=quads[:, 0])
    return np.divide(np.multiply(numerator, 2.0, out=numerator), sums, out=sums)
