"""Deterministic, seedable pseudo-random source.

Every stochastic decision in this package (schedule draws, weight
initialisation, dropout masks, synthetic data) flows through ``Rng`` so a run
is fully reproducible from a single 64-bit seed, independent of platform.

The generator is SplitMix64 (Steele, Lea & Flood; the mixer behind
``java.util.SplittableRandom``): the 64-bit state advances by a fixed odd
constant and each output is a three-round avalanche hash of the state.
Because the state sequence is a plain arithmetic progression, a block of n
draws can be computed vectorised in numpy and is bit-identical to n scalar
calls -- which is what makes per-timestep dropout masks affordable without
giving up determinism.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)

# 2**-53; (u64 >> 11) * 2**-53 is the standard 53-bit uniform in [0, 1)
_TO_UNIT = 2.0 ** -53
# uniform_block works in chunks of this many draws, so the temporaries of a
# frame-sized block (all dropout masks of a frame) stay in cache
_CHUNK = 1 << 14


class Rng:
    """SplitMix64 stream. Not safe to share across concurrent callers."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _u64_block(self, n: int) -> np.ndarray:
        """n outputs as uint64, advancing state exactly as n next_u64 calls."""
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U_GAMMA
        z += np.uint64(self._state)  # wraps mod 2**64
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> _U30
        z *= _U_MIX1
        z ^= z >> _U27
        z *= _U_MIX2
        z ^= z >> _U31
        return z

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _TO_UNIT

    def uniform_block(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); bit-identical to n uniform() calls."""
        out = np.empty(n)
        for lo in range(0, n, _CHUNK):
            z = self._u64_block(min(_CHUNK, n - lo))
            z >>= _U11
            np.multiply(z, _TO_UNIT, out=out[lo : lo + z.size])
        return out

    def uniform_int(self, low: int, high: int) -> int:
        """Unbiased integer draw from the inclusive range [low, high].

        Uses top-bits rejection sampling, so no modulo bias; consumes a
        variable (but seed-determined) number of raw outputs.
        """
        if low > high:
            raise ValueError(f"uniform_int: empty range [{low}, {high}]")
        span = high - low + 1
        shift = 64 - (span - 1).bit_length()
        while True:
            v = self.next_u64() >> shift
            if v < span:
                return low + v

    def normal(self) -> float:
        """One standard normal draw; consumes exactly two raw outputs."""
        return float(self.normal_block(1)[0])

    def normal_block(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller (cosine branch only).

        Each output consumes exactly two raw u64 draws, so block and scalar
        calls stay interchangeable.
        """
        if n == 0:
            return np.empty(0, dtype=np.float64)
        raw = self._u64_block(2 * n)
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1)
        u1 = ((raw[0::2] >> _U11).astype(np.float64) + 1.0) * _TO_UNIT
        u2 = (raw[1::2] >> _U11).astype(np.float64) * _TO_UNIT
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
