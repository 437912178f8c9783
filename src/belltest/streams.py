"""Counter-based random streams for reproducible parallel simulation.

Every uniform variate consumed by the survey driver is addressed by
(seed, stream, agent index, draw slot) and produced by a stateless
splitmix64-style mix of those four words.  Because nothing is shared
between agents, any chunking of the agent range into calls yields
bit-identical results.  ``run_protocol`` rejects seeds outside [0, 2**64).
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)


_MASK = (1 << 64) - 1


def _mix(x: np.ndarray) -> np.ndarray:
    z = x + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _mix_int(x: int) -> int:
    # Same finalizer on Python ints, for the per-run scalar key.
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_uniforms(
    seed: int, stream: int, indices: np.ndarray, draw: int
) -> np.ndarray:
    """Uniform [0, 1) variates addressed by (seed, stream, index, draw)."""
    idx = np.asarray(indices, dtype=np.uint64)
    base = _mix_int(_mix_int(seed & _MASK) ^ (stream & _MASK))
    word = _mix(np.uint64(base) ^ (idx * _GAMMA + np.uint64(draw)))
    return (word >> np.uint64(11)).astype(np.float64) * _INV_2_53
