"""Counter-based random streams for reproducible parallel simulation.

Every draw consumed by the survey driver is addressed by (seed, stream,
agent index, draw slot) and produced by a stateless splitmix64-style mix of
those four words.  Because nothing is shared between agents, any chunking of
the agent range into calls yields bit-identical results.  A draw keys and
mixes the seed-free word ``index * gamma + slot`` into 53 bits, whose uniform
is exactly ``bits * 2**-53``.  ``run_protocol`` rejects seeds outside [0, 2**64).
"""

from __future__ import annotations

import numpy as np

_WORDS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)  # gamma, m1, m2
_MASK = 2**64 - 1
# The words and shifts as read-only 0-d uint64 arrays: the arithmetic stays uint64 on
# any numpy, and no operation first converts a numpy scalar to an array.
_GAMMA, _M1, _M2, _S11, _S27, _S30, _S31 = _UINT64 = [np.array(w, np.uint64) for w in
                                                      (*_WORDS, 11, 27, 30, 31)]
for _word in _UINT64:
    _word.flags.writeable = False


def _mix(z: np.ndarray) -> np.ndarray:
    """Apply the splitmix64 finalizer to the uint64 array ``z`` in place; returns ``z``."""
    z += _GAMMA
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _mix_int(z: int) -> int:
    """``_mix`` on one word held as a Python int in [0, 2**64)."""
    z = (z + _WORDS[0]) & _MASK
    z = ((z ^ z >> 30) * _WORDS[1]) & _MASK
    z = ((z ^ z >> 27) * _WORDS[2]) & _MASK
    return z ^ z >> 31


def stream_keys(seed: int, streams) -> np.ndarray:
    """The key word of each stream id in ``streams`` (integers in [0, 2**64)) under
    ``seed``: ``_mix(_mix(seed) ^ stream)``, mixed as Python ints."""
    base = _mix_int(int(seed))
    return np.array([_mix_int(base ^ int(s)) for s in streams], dtype=np.uint64)


def counter_words(indices: np.ndarray, draws) -> np.ndarray:
    """The seed-free words ``index * gamma + slot`` of uint64 agent ``indices`` and
    draw slots ``draws`` (one slot, or a column of slots for one row each)."""
    return indices * _GAMMA + draws


def keyed_bits(keys: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The 53-bit draws ``_mix(word ^ key) >> 11`` of counter ``words`` in the streams
    with ``keys`` (one for all words, or one per column)."""
    return _mix(words ^ keys) >> _S11


def thresholds(p) -> np.ndarray:
    """``ceil(p * 2**53)`` as uint64; the scaling and ceiling are exact, so a draw
    ``bits`` has ``bits * 2**-53 >= p`` exactly when ``bits >= thresholds(p)``."""
    return np.ceil(np.multiply(p, 2.0**53)).astype(np.uint64)


def counter_uniforms(seed: int, stream: int, indices: np.ndarray, draw: int) -> np.ndarray:
    """Uniform [0, 1) variates addressed by (seed, stream, index, draw): the
    53-bit draws ``keyed_bits`` gives, times 2**-53."""
    keys = stream_keys(seed, np.array([stream], dtype=np.uint64))
    words = counter_words(np.asarray(indices, dtype=np.uint64), np.uint64(draw))
    return keyed_bits(keys, words) * 2.0**-53
