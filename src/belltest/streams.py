"""Counter-based random streams for reproducible parallel simulation.

Every uniform variate consumed by the survey driver is addressed by
(seed, stream, agent index, draw slot) and produced by a stateless
splitmix64-style mix of those four words.  Because nothing is shared
between agents, any chunking of the agent range into calls yields
bit-identical results.  ``run_protocol`` rejects seeds outside [0, 2**64).
"""

from __future__ import annotations

from functools import cache

_WORDS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)  # gamma, m1, m2
_MASK = 2**64 - 1
_INV_2_53 = float(2.0**-53)


@cache
def _uint64() -> tuple:
    """gamma, m1, m2 and the shifts 11, 27, 30, 31 as uint64 scalars (uint64 math on any numpy)."""
    import numpy as np
    return tuple(map(np.uint64, (*_WORDS, 11, 27, 30, 31)))


def _mix(z: np.ndarray) -> np.ndarray:
    """Apply the splitmix64 finalizer to the uint64 array ``z`` in place; returns ``z``."""
    gamma, m1, m2, _, s27, s30, s31 = _uint64()
    z += gamma
    z ^= z >> s30
    z *= m1
    z ^= z >> s27
    z *= m2
    z ^= z >> s31
    return z


def _mix_int(z: int) -> int:
    """``_mix`` on one word held as a Python int in [0, 2**64)."""
    z = (z + _WORDS[0]) & _MASK
    z = ((z ^ z >> 30) * _WORDS[1]) & _MASK
    z = ((z ^ z >> 27) * _WORDS[2]) & _MASK
    return z ^ z >> 31


def stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    """The key word of each stream id in the uint64 array ``streams`` under ``seed``:
    ``_mix(_mix(seed) ^ stream)``, mixed as Python ints."""
    import numpy as np
    base = _mix_int(int(seed))
    return np.array([_mix_int(base ^ s) for s in streams.tolist()], dtype=np.uint64)


def keyed_uniforms(keys: np.ndarray, indices: np.ndarray, draws) -> np.ndarray:
    """Uniform [0, 1) variates of the agents at uint64 ``indices``, in the streams
    with ``keys`` (one for all agents, or one each) and the uint64 draw slots
    ``draws`` (one slot, or a column of slots for one row of variates each)."""
    gamma, _, _, s11, *_ = _uint64()
    word = indices * gamma + draws
    word ^= keys
    _mix(word)
    word >>= s11
    return word.astype(float) * _INV_2_53


def counter_uniforms(seed: int, stream: int, indices: np.ndarray, draw: int) -> np.ndarray:
    """Uniform [0, 1) variates addressed by (seed, stream, index, draw)."""
    import numpy as np
    keys = stream_keys(seed, np.array([stream], dtype=np.uint64))
    return keyed_uniforms(keys, np.asarray(indices, dtype=np.uint64), np.uint64(draw))
