"""Traced allocation of the simulation kernel on 3 x 10**6 agents.

``run_protocol`` simulates the survey in fixed blocks of agents, so beyond
the dataset's own cells (1 byte per agent) its peak holds a few block-sized
arrays, whatever the survey size.
"""

import math
import tracemalloc

import numpy as np
import pytest

from belltest import (
    ClassicalHiddenVariable,
    DesignVariant,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    random_joint,
    run_protocol,
)

WITNESS = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)
AGENTS = 3_000_000
PEAK_BOUND = 4 << 20  # bytes beyond the cells: a few arrays of 2**16 8-byte values (512 KiB each)
POPULATIONS = {
    "classical": ClassicalHiddenVariable(random_joint(np.random.default_rng(2))),
    "quantum": QuantumUnpolarized(WITNESS),
}


@pytest.mark.parametrize("variant", list(DesignVariant))
@pytest.mark.parametrize("kind", sorted(POPULATIONS))
def test_peak_is_the_cells_plus_a_few_blocks(variant, kind):
    design = ProtocolDesign(variant, AGENTS // 3)
    tracemalloc.start()
    try:
        data = run_protocol(POPULATIONS[kind], design, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == AGENTS
    assert peak < AGENTS + PEAK_BOUND
