"""Seedable, splittable random streams for reproducible experiments.

Every experiment records one 64-bit master seed.  Substreams (per trial,
per role) are addressed by ``numpy.random.SeedSequence`` spawn keys, so
trial ``t`` of an experiment can be replayed in isolation and trials can
run in parallel without any shared RNG state.

``stream`` derives its PCG64 seed with SeedSequence's own hash, bit for
bit, computed here in Python ints: the master seed and every path word
but the last are mixed once and memoised, so a per-trial stream only
mixes its trial index and runs the output hash.  A path that is empty
or ends in a word of 2**32 or more takes ``SeedSequence`` itself.  The
returned generators draw exactly what
``Generator(PCG64(SeedSequence(master, spawn_key=path)))`` draws, but
their bit generator holds only the derived seed words: ``.spawn()``
raises ``TypeError`` and ``.seed_seq`` is not a ``SeedSequence``.
"""

from __future__ import annotations

import functools
import operator
import secrets

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# Role tags used as the first spawn-key component of derived streams.
TREE = 0  # spanning-tree sampling
SUBSET = 1  # random vertex subsets
RECONF = 2  # new-parent choices during leaf reconfiguration
MODEL = 3  # one-out draws in the bipartite degree model
BOOTSTRAP = 4  # confidence-interval resampling
GENERATE = 5  # graph generation

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _output_constants() -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of each of the 8 words ``generate_state(4, uint64)``
    hashes: the output hash constant before and after its update."""
    out = []
    h = _INIT_B
    for _ in range(2 * _POOL_SIZE):
        nxt = h * _MULT_B & _MASK32
        out.append((h, nxt))
        h = nxt
    return tuple(out)


_OUTPUT = _output_constants()


def resolve_seed(seed: int | None = None) -> int:
    """Return ``seed`` as a 64-bit int, drawing a fresh one if ``None``."""
    if seed is None:
        return secrets.randbits(64)
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a non-negative 64-bit integer")
    return seed


def _words(x: int) -> list[int]:
    """SeedSequence's 32-bit little-endian split of a non-negative int."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    out = [x & _MASK32]
    x >>= 32
    while x:
        out.append(x & _MASK32)
        x >>= 32
    return out


@functools.lru_cache(maxsize=256)
def _mixed_prefix(master: int, head: tuple[int, ...]) -> tuple[int, ...]:
    """SeedSequence's entropy pool after mixing ``master`` and the spawn-key
    words ``head``, plus the hash constant: five ints.

    With a spawn key, SeedSequence zero-pads the master's words to the
    pool size before appending the key's words, and every word past the
    pool size is mixed into each pool word in turn.
    """
    entropy = _words(master)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for w in head:
        entropy += _words(w)
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    return (*pool, h)


class _SeedWords(ISeedSequence):
    """The four uint64 words PCG64 seeds from, already generated."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds the four uint64 words of a PCG64 seed only")
        return self.words


def stream(master: int, *path: int) -> Generator:
    """Derive the PCG64 generator addressed by spawn-key ``path``.

    ``stream(s)`` is the root stream for master seed ``s``;
    ``stream(s, role, t)`` is the stream for role ``role`` of trial ``t``.
    Every call returns a fresh generator.

    Hot loops in the samplers draw batches of float64s from these
    generators and index with ``int(u * k)``: that is about 6x faster
    than scalar ``Generator.integers`` calls, never reaches ``k`` (the
    largest float64 below 1 times ``k`` rounds down), and carries a
    per-draw bias of order ``k * 2**-53``, far below anything the
    statistical tests can resolve.
    """
    if not path or not 0 <= path[-1] <= _MASK32:
        return Generator(PCG64(SeedSequence(master, spawn_key=path)))
    *prefix, h = _mixed_prefix(master, path[:-1])
    # The last spawn-key word, mixed into each pool word in turn (hashmix
    # and mix inlined: this runs once per stream).
    w = operator.index(path[-1])
    pool = []
    for x in prefix:
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        r = (_MIX_MULT_L * x - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
        pool.append(r ^ r >> 16)
    # generate_state(4, uint64): 8 hashed words cycling over the pool,
    # paired little-endian into uint64s.
    out = []
    for x, (c, m) in zip(pool + pool, _OUTPUT):
        v = (x ^ c) * m & _MASK32
        out.append(v ^ v >> 16)
    words = [
        out[0] | out[1] << 32, out[2] | out[3] << 32,
        out[4] | out[5] << 32, out[6] | out[7] << 32,
    ]
    return Generator(PCG64(_SeedWords(np.array(words, dtype=np.uint64))))
