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
_LANE_SALT = 0xD6E8FEB86659FD93
_U64_MASK = (1 << 64) - 1
# 2^-53, the spacing of doubles in [1, 2); top 53 bits of a word map to [0, 1)
_INV_2_53 = float(2.0**-53)


def _mix_int(z: int) -> int:
    """splitmix64 finalizer of one word held as a Python int, mod 2^64."""
    z = ((z ^ (z >> 30)) * int(_MIX1)) & _U64_MASK
    z = ((z ^ (z >> 27)) * int(_MIX2)) & _U64_MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, with one scratch
    array for the shifted words."""
    scratch = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def words(seed: int, lane: int, indices: np.ndarray | int) -> np.ndarray:
    """64-bit hash words for the given (seed, lane, index) triples.

    ``indices`` may be a scalar or an integer array; the result has the same
    shape.  Distinct (seed, lane, index) triples give statistically
    independent words.
    """
    if isinstance(indices, np.ndarray) and indices.dtype == np.int64:
        # an int64 index has the bits of its uint64 cast: a view, not a copy
        idx = np.atleast_1d(indices).view(np.uint64)
    else:
        idx = np.atleast_1d(np.asarray(indices, dtype=np.uint64))
    # the (seed, lane) key takes the array path's operations on one word
    key = _mix_int(_mix_int(seed & _U64_MASK) ^ ((lane + 1) * _LANE_SALT & _U64_MASK))
    z = np.multiply(idx, _GAMMA)
    z ^= np.uint64(key)
    return _mix(z)


def uniform01(seed: int, lane: int, indices: np.ndarray | int) -> np.ndarray:
    """Uniform doubles in [0, 1), one per index, from the keyed hash."""
    w = words(seed, lane, indices)
    w >>= np.uint64(11)
    # below 2^53 a word converts exactly, and the scaling by a power of 2 is exact
    return np.multiply(w, _INV_2_53)


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
