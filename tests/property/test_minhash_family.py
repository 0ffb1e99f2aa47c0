"""The MinHash family is numpy's stream, drawn without ``numpy.random``.

:class:`MinHasher` draws its ``(a, b)`` coefficients with a pure-Python
replica of ``np.random.default_rng(seed).integers(...)``; these properties
hold the replica to numpy, bit for bit, and pin the default family's first
coefficients so that neither a numpy upgrade nor an edit of the replica
can move a store's signatures silently.  The sort-and-mask dedup the LSH
buckets use instead of ``np.unique`` is held to ``np.unique`` the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import MinHasher
from repro.sketch.lsh import sorted_unique

PRIME = (1 << 31) - 1


def numpy_family(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, PRIME, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, PRIME, size=num_perm, dtype=np.uint64)
    return a, b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 7, 64, 128, 257]))
def test_coefficients_are_numpys_stream(seed, num_perm):
    hasher = MinHasher(num_perm, seed=seed)
    a, b = numpy_family(num_perm, seed)
    assert hasher._a.dtype == hasher._b.dtype == np.uint64
    assert hasher._a.tobytes() == a.tobytes()
    assert hasher._b.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**63 - 1, 2**64 - 1, 2**130 + 7])
def test_seeds_of_every_word_count_match(seed):
    """One, two and five 32-bit entropy words: the last overflows the
    seed sequence's four-word pool."""
    a, b = numpy_family(128, seed)
    hasher = MinHasher(128, seed=seed)
    assert np.array_equal(hasher._a, a) and np.array_equal(hasher._b, b)


def test_the_default_family_is_pinned():
    hasher = MinHasher(128, seed=1)
    assert hasher._a[:4].tolist() == [1016164991, 1099128569, 1621709874, 2041105244]
    assert hasher._b[:4].tolist() == [886956485, 1794371228, 2143709453, 605328024]


def test_hashers_of_one_family_share_read_only_coefficients():
    first, second = MinHasher(64, seed=3), MinHasher(64, seed=3)
    assert first._a is second._a and first._b is second._b
    assert not first._a.flags.writeable and not first._b.flags.writeable
    with pytest.raises(ValueError):
        first._a[0] = 1


@pytest.mark.parametrize("seed", [None, True, False, 1.0, "1", np.int64(1)])
def test_a_non_int_seed_is_refused(seed):
    with pytest.raises(TypeError, match="seed"):
        MinHasher(16, seed=seed)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed"):
        MinHasher(16, seed=-1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 40), max_size=60), st.sampled_from([np.int32, np.intp]))
def test_sorted_unique_is_numpys_unique(values, dtype):
    array = np.array(values, dtype=dtype)
    deduped = sorted_unique(array)
    assert deduped.dtype == array.dtype
    assert np.array_equal(deduped, np.unique(array))
