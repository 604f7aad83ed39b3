import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import rng as rnglib
from spanlab.rng import stream

from helpers import reference_stream

MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
ROLES = range(6)
TRIALS = (0, 1, 4999, 2**32 - 1)
# A last word of 2**32 or more is a multi-word key: SeedSequence seeds it.
FALLBACK_WORDS = (2**32, 2**40)


def _grid_paths():
    yield ()
    for r in ROLES:
        yield (r,)
        for t in TRIALS + FALLBACK_WORDS:
            yield (r, t)
            yield (r, 7, t)
        yield (r, 2**40, 3)  # a multi-word key before the last word


def _same_stream(master, path):
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
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**40 - 1), max_size=3).map(tuple),
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


def test_derived_generators_do_not_spawn():
    with pytest.raises(TypeError):
        stream(1, rnglib.TREE, 3).spawn(1)
    assert len(stream(1).spawn(2)) == 2  # an empty path is SeedSequence's own
