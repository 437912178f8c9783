"""Traced allocation of the search kernels.

The classical floor draws its Dirichlet weights and the angle grid evaluates
its cells in fixed blocks, so neither peak grows with the sample count or the
grid size.
"""

import tracemalloc

import numpy as np

from belltest.search import classical_margin_floor, maximize_quantum_violation

PEAK_BOUND = 4 << 20  # bytes: a few live blocks of 2**16 float64 values (512 KiB each)


def traced_peak(function, *arguments):
    """``function(*arguments)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return function(*arguments), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_floor_peak_does_not_grow_with_samples():
    cert, peak = traced_peak(classical_margin_floor, 2_000_000, np.random.default_rng(5))
    assert cert.samples_evaluated == 2_000_008
    assert peak < PEAK_BOUND


def test_grid_peak_does_not_grow_with_grid_size():
    result, peak = traced_peak(maximize_quantum_violation, 1440, 1e-9)
    assert result.evaluations > 1440 * 1440
    assert peak < PEAK_BOUND
