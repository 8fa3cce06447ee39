"""Deterministic, derivable random source for reproducible sampling runs.

Every "randomly select" step in the estimators draws from a
:class:`RandomSource`. The same seed always yields the same stream, and
``derive(i)`` produces an independent child stream whose seed is a pure
64-bit mix of ``(seed, i)``, so trial ``i`` of a harness is individually
re-runnable and trials may execute in any order or in parallel.

A source of seed ``s`` is numpy's ``PCG64(s)``: numpy's ``SeedSequence``
turns ``s`` into four 64-bit words and PCG64 seeds itself from them.
A sweep row derives its trials a block at a time with
``derive(np.arange(a, b))``: one vectorized ``splitmix64`` gives the
children's seeds, ``_pcg64_words`` repeats ``SeedSequence``'s hashing
for all of them in uint32 array arithmetic, and each child's words
reach ``np.random.PCG64`` through ``_Words`` (``_words_type``), a
subclass of numpy's public ``ISeedSequence``. PCG64 still runs its own
seeding, so each child is bit-identical to
``RandomSource(mix_seed(seed, i))``. This ties the row path to numpy's
seeding: ``_Words`` refuses any request but PCG64's four uint64 words,
and ``tests/test_rng.py`` compares the states with
``np.random.PCG64(s).state`` over the whole seed range, so a numpy that
seeded PCG64 differently fails there instead of changing streams.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x):
    """One round of the splitmix64 finalizer (public domain constants),
    on a Python int or elementwise on a uint64 array."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(seed: int, child_index):
    """Child seed for stream derivation: splitmix64(seed XOR splitmix64(i)).

    ``child_index`` is a Python int, or a uint64 array for one seed per
    element.
    """
    return splitmix64((seed & _MASK64) ^ splitmix64(child_index & _MASK64))


# numpy's SeedSequence constants. A seed below 2**64 is at most two
# uint32 words of entropy, so the pool is those words padded with zeros
# to four, and every hash constant in its sequence is fixed in advance.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _powers(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**i`` modulo 2**32 for i < count."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


# Hash i of the pool uses constants i and i + 1: 4 fills, then 12 mixes.
_HASH_A = _powers(_INIT_A, _MULT_A, _POOL * _POOL + 1)
# Output word i (of 8 uint32 words) uses constants i and i + 1.
_HASH_B = _powers(_INIT_B, _MULT_B, 2 * _POOL + 1)


def _hashmix(value: np.ndarray, before: int, after: int) -> np.ndarray:
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64
    seed ``s``, one row per seed."""
    entropy = [(seeds & _MASK32).astype(np.uint32),
               (seeds >> 32).astype(np.uint32)]
    entropy += [np.zeros_like(entropy[0])] * (_POOL - len(entropy))
    pool = [_hashmix(e, _HASH_A[i], _HASH_A[i + 1]) for i, e in enumerate(entropy)]
    c = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h = _hashmix(pool[src], _HASH_A[c], _HASH_A[c + 1])
                c += 1
                mixed = pool[dst] * _MIX_MULT_L - h * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)
    state = [_hashmix(pool[i % _POOL], _HASH_B[i], _HASH_B[i + 1]).astype(np.uint64)
             for i in range(2 * _POOL)]
    out = np.empty((seeds.size, _POOL), dtype=np.uint64)
    for i in range(_POOL):
        out[:, i] = state[2 * i] | state[2 * i + 1] << 32
    return out


@functools.cache
def _words_type() -> type:
    """``_Words``: a seed sequence that hands PCG64 its four precomputed
    words. Defined on first use, as numpy loads ``numpy.random`` only
    when it is first used and ``tricount stats`` never uses it."""
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (_POOL, np.uint64):
                raise ValueError(f"expected a request for {_POOL} uint64 "
                                 f"words, got {n_words} of {dtype}")
            return self.words

    return _Words


def _sources(seeds: np.ndarray) -> list[RandomSource]:
    """``RandomSource(s)`` for each uint64 seed ``s``, with the seeds'
    PCG64 words computed in one pass."""
    words_type = _words_type()
    sources = []
    for seed, words in zip(seeds.tolist(), _pcg64_words(seeds)):
        source = RandomSource.__new__(RandomSource)
        source.seed = seed
        source._gen = np.random.Generator(np.random.PCG64(words_type(words)))
        sources.append(source)
    return sources


class RandomSource:
    """Seeded wrapper around numpy's PCG64 generator.

    A RandomSource instance is single-consumer; concurrent users must
    each own a stream obtained via :meth:`derive`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, child_index) -> RandomSource | list[RandomSource]:
        """Independent deterministic child stream for ``child_index``.

        Given a 1-D integer array, the children for each entry in order,
        as a list, seeded in one vectorized pass.
        """
        if not isinstance(child_index, np.ndarray):
            return RandomSource(mix_seed(self.seed, child_index))
        if child_index.ndim != 1 or child_index.dtype.kind not in "iu":
            raise TypeError("child indices must be a 1-D integer array")
        return _sources(mix_seed(self.seed, child_index.astype(np.uint64)))

    def uniform_reals(self, size: int) -> np.ndarray:
        """``size`` uniform draws in [0, 1)."""
        return self._gen.random(size)

    def uniform_indices(self, n, size: int | None = None) -> np.ndarray:
        """Uniform integer draws in [0, n); ``n`` may be a per-draw array."""
        return self._gen.integers(0, n, size=size, dtype=np.int64)
