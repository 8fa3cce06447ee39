"""Deterministic, derivable random source for reproducible sampling runs.

Every "randomly select" step in the estimators draws from a
:class:`RandomSource`. The same seed always yields the same stream, and
``derive(i)`` produces an independent child stream whose seed is a pure
64-bit mix of ``(seed, i)``, so trial ``i`` of a harness is individually
re-runnable and trials may execute in any order or in parallel.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (public domain constants)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(seed: int, child_index: int) -> int:
    """Child seed for stream derivation: splitmix64(seed XOR splitmix64(i))."""
    return splitmix64((seed & _MASK64) ^ splitmix64(child_index & _MASK64))


class RandomSource:
    """Seeded wrapper around numpy's PCG64 generator.

    A RandomSource instance is single-consumer; concurrent users must
    each own a stream obtained via :meth:`derive`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, child_index: int) -> "RandomSource":
        """Independent deterministic child stream for ``child_index``."""
        return RandomSource(mix_seed(self.seed, child_index))

    def uniform_reals(self, size: int) -> np.ndarray:
        """``size`` uniform draws in [0, 1)."""
        return self._gen.random(size)

    def uniform_indices(self, n, size: int | None = None) -> np.ndarray:
        """Uniform integer draws in [0, n); ``n`` may be a per-draw array."""
        return self._gen.integers(0, n, size=size, dtype=np.int64)
