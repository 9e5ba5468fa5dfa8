"""Counter-based random words for reproducible, index-addressable sampling.

The generator is a keyed integer hash: each 64-bit output word is a pure
function of (seed, lane, index).  This gives random access into a virtual
sequence of draws -- draw number n can be produced without generating draws
1..n-1 -- which is what windowed Monte Carlo experiments need.  The mixer is
the splitmix64 finalizer applied in three keyed rounds; its statistical
quality is certified empirically by the chi-square tests in the test suite.

All functions are pure and operate on numpy uint64 arrays (wraparound
arithmetic is intentional); ``bits`` is one ``np.unpackbits`` of the words' bytes.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LANE_SALT = np.uint64(0xD6E8FEB86659FD93)
_U64_MASK = (1 << 64) - 1
# 2^-53, the spacing of doubles in [1, 2); top 53 bits of a word map to [0, 1)
_INV_2_53 = float(2.0**-53)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def words(seed: int, lane: int, indices: np.ndarray | int) -> np.ndarray:
    """64-bit hash words for the given (seed, lane, index) triples.

    ``indices`` may be a scalar or an integer array; the result has the same
    shape.  Distinct (seed, lane, index) triples give statistically
    independent words.
    """
    idx = np.atleast_1d(np.asarray(indices, dtype=np.uint64))
    key = _mix(np.array([seed & _U64_MASK], dtype=np.uint64))
    lane_salt = (np.array([lane + 1], dtype=np.uint64)) * _LANE_SALT
    key = _mix(key ^ lane_salt)
    return _mix(key[0] ^ (idx * _GAMMA))


def uniform01(seed: int, lane: int, indices: np.ndarray | int) -> np.ndarray:
    """Uniform doubles in [0, 1), one per index, from the keyed hash."""
    w = words(seed, lane, indices)
    return (w >> np.uint64(11)).astype(np.float64) * _INV_2_53


def bits(seed: int, lane: int, indices: np.ndarray | int, nbits: int) -> np.ndarray:
    """The low ``nbits`` bits of each hash word as a (len, nbits) 0/1 array,
    lowest bit first: one unpack of the words' little-endian bytes.

    nbits must be at most 64; used for i.i.d. fair digit sequences.
    """
    if not 0 < nbits <= 64:
        raise ValueError(f"nbits must be in 1..64, got {nbits}")
    w = words(seed, lane, indices).astype("<u8", copy=False)
    return np.unpackbits(w.view(np.uint8).reshape(-1, 8), axis=1, count=nbits,
                         bitorder="little").view(np.int8)
