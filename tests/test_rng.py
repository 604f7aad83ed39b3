import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import rng as rnglib
from spanlab.rng import stream, streams

from helpers import reference_stream

# Masters of 2**64 and more take three or four 32-bit words.
MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100)
ROLES = range(6)
TRIALS = (0, 1, 4999, 2**32 - 1)
# Last path elements of two and three 32-bit words.
MULTI_WORD = (2**32, 2**40, 2**64 + 3)


def _grid_paths():
    yield ()
    for r in ROLES:
        yield (r,)
        for t in TRIALS + MULTI_WORD:
            yield (r, t)
            yield (r, 7, t)
        yield (r, 2**40, 3)  # a multi-word key before the last word


def _same_stream(master, path, fast=None):
    """``fast`` (``stream(master, *path)`` when not given) is the generator
    SeedSequence seeds for ``path``: the same state and the same draws."""
    if fast is None:
        fast = stream(master, *path)
    ref = reference_stream(master, *path)
    assert fast.bit_generator.state == ref.bit_generator.state, (master, path)
    assert np.array_equal(fast.random(8), ref.random(8)), (master, path)


@pytest.mark.parametrize("master", MASTERS)
def test_stream_matches_seedsequence_on_grid(master):
    for path in _grid_paths():
        _same_stream(master, path)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**100),
    st.lists(st.integers(0, 2**70), max_size=3).map(tuple),
)
def test_stream_matches_seedsequence(master, path):
    _same_stream(master, path)


def test_stream_takes_numpy_integers():
    _same_stream(np.uint64(2**64 - 1), (np.int64(2), np.uint32(4999)))
    _same_stream(np.int64(7), (np.uint64(2**40), np.int32(3)))


def test_stream_returns_fresh_generators():
    a = stream(3, rnglib.TREE, 5)
    first = a.random(4)
    b = stream(3, rnglib.TREE, 5)
    assert a is not b
    assert np.array_equal(b.random(4), first)


def test_stream_refuses_negative_words_like_seedsequence():
    for path in ((-1,), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            reference_stream(5, *path)
        with pytest.raises(ValueError):
            stream(5, *path)
    with pytest.raises(ValueError):
        stream(-1, 0)
    for args in ((5, -1, 0, 3), (5, 0, -1, 3), (-1, 0, 0, 3)):
        with pytest.raises(ValueError):
            next(streams(*args))


def test_derived_generators_do_not_spawn():
    with pytest.raises(TypeError):
        stream(1, rnglib.TREE, 3).spawn(1)
    with pytest.raises(TypeError):  # the root stream too
        stream(1).spawn(2)
    with pytest.raises(TypeError):
        next(streams(1, rnglib.TREE, 0, 1)).spawn(1)


# Chunk ranges: empty, one trial, twenty trials, five that straddle 2**32,
# where the last path word takes two 32-bit words and ``streams`` goes over
# to ``stream``, and two past it.
RANGES = ((0, 0), (0, 1), (4990, 5010), (2**32 - 3, 2**32 + 2), (2**32 + 5, 2**32 + 7))


def _same_streams(master, role, lo, hi):
    got = list(streams(master, role, lo, hi))
    assert len(got) == max(0, hi - lo)
    for t, fast in zip(range(lo, hi), got):
        assert fast.bit_generator.state == stream(master, role, t).bit_generator.state
        _same_stream(master, (role, t), fast)


@pytest.mark.parametrize("master", MASTERS)
def test_streams_match_stream_on_grid(master):
    for role in ROLES:
        for lo, hi in RANGES:
            _same_streams(master, role, lo, hi)


def test_streams_cross_blocks():
    # 2500 trials take three numpy passes: two full blocks and a partial one.
    master, role = 2**64 - 1, rnglib.RECONF
    got = streams(master, role, 3, 2503)
    for t, fast in zip(range(3, 2503), got):
        want = stream(master, role, t)
        assert fast.bit_generator.state == want.bit_generator.state, t
    assert next(got, None) is None


def test_streams_take_numpy_integers():
    for master in (np.uint64(2**64 - 1), np.int64(7)):
        _same_streams(master, np.int64(2), np.uint32(4990), np.int64(5010))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**100),
    st.integers(0, 5),
    st.one_of(st.integers(0, 2**33), st.integers(2**32 - 300, 2**32 + 300)),
    st.integers(0, 300),
)
def test_streams_match_seedsequence(master, role, lo, length):
    _same_streams(master, role, lo, lo + length)


def test_streams_do_not_build_the_range():
    # 2**31 streams' seed words would take 64 GB; the first comes back from
    # one bounded block.
    tracemalloc.start()
    try:
        first = next(streams(9, rnglib.TREE, 0, 2**31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    _same_stream(9, (rnglib.TREE, 0), first)
