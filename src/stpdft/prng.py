"""SplitMix64: a tiny, portable, bit-exact seeded generator.

Used wherever reproducibility across platforms (and across independent
reimplementations) matters: CLI weight generation and the frozen expected
values of derived test oracles.  Identical seed, identical stream,
everywhere.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit state; next() advances by the golden-ratio increment and mixes."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1) from the high 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform() draws at once.  The k-th state is the start plus k
        times the increment mod 2**64, so uint64 arrays (which wrap without
        warning) give the same words, and the state ends where n draws leave it."""
        n = max(operator.index(n), 0)
        z = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self.state = (self.state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53

    def matrix(self, rows: int, cols: int, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        """rows x cols matrix of uniforms mapped to [low, high)."""
        u = self.uniforms(rows * cols).reshape(rows, cols)
        return low + (high - low) * u

    def vector(self, n: int, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        return low + (high - low) * self.uniforms(n)

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive, via the uniform double."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + int(self.uniform() * (high - low + 1))
