"""Sketch encodings and the array-backed band index, as properties.

Three contracts (the reference sides live in ``tests/sketch_oracles.py``):

* ``to_bytes`` / ``from_bytes`` round-trip every MinHash signature, and
  the bytes are a function of the content alone;
* a MinHash body of any width but uint32 is refused;
* :class:`BandedLSHIndex` and :class:`LSHEnsemble` over a signature
  matrix return exactly what one ``{band bytes: keys}`` dict per band
  returned, for every band width and every prefix of bands.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import BandedLSHIndex, LSHEnsemble, MinHasher, MinHashSignature
from sketch_oracles import DictBandedLSHIndex, DictLSHEnsemble

# ----------------------------------------------------------------------
# MinHash
# ----------------------------------------------------------------------
token_sets = st.sets(st.text(max_size=5), max_size=40)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 16, 100, 128]), st.integers(0, 50), token_sets)
def test_minhash_round_trip(num_perm, seed, tokens):
    signature = MinHasher(num_perm, seed=seed).signature(tokens)
    payload = signature.to_bytes()
    assert len(payload) == 12 + 4 * num_perm
    restored = MinHashSignature.from_bytes(payload)
    assert restored.size == signature.size == len(tokens)
    assert restored.values.dtype == np.uint32
    assert np.array_equal(restored.values, signature.values)
    assert restored.to_bytes() == payload


def test_minhash_empty_set_sentinel_survives():
    signature = MinHasher(32).signature(set())
    assert set(signature.values.tolist()) == {2**31 - 2}
    restored = MinHashSignature.from_bytes(signature.to_bytes())
    assert restored.size == 0 and np.array_equal(restored.values, signature.values)


@settings(max_examples=60, deadline=None)
@given(token_sets, st.randoms(use_true_random=False))
def test_minhash_bytes_ignore_token_order(tokens, rng):
    ordered = sorted(tokens)
    shuffled = list(ordered)
    rng.shuffle(shuffled)
    hasher = MinHasher(64, seed=3)
    assert hasher.signature(ordered).to_bytes() == hasher.signature(shuffled).to_bytes()


def test_minhash_rejects_a_body_of_neither_width():
    payload = MinHasher(16).signature({"a"}).to_bytes()
    for bad in (payload[:-3], payload + b"\0" * 5, payload[:8]):
        with pytest.raises(ValueError):
            MinHashSignature.from_bytes(bad)


def with_values(signature: MinHashSignature, values, size=None) -> MinHashSignature:
    return MinHashSignature(np.asarray(values), signature.size if size is None else size)


def test_minhash_uint32_payload_rejects_minima_no_hasher_produces():
    signature = MinHasher(16).signature({"a", "b", "c"})
    empty = MinHasher(16).signature(set())
    payload = bytearray(signature.to_bytes())
    payload[12 + 3] ^= 0x80  # the top bit of the first minimum
    ceiling = signature.values.copy()
    ceiling[5] = 2**31 - 1  # one above the largest residue mod 2**31 - 1
    nonempty_minima = empty.values.copy()
    nonempty_minima[0] = 7
    for bad in (
        bytes(payload),
        with_values(signature, ceiling).to_bytes(),
        with_values(empty, nonempty_minima, size=0).to_bytes(),
    ):
        with pytest.raises(ValueError):
            MinHashSignature.from_bytes(bad)
    assert MinHashSignature.from_bytes(empty.to_bytes()).size == 0


def uint64_payload(signature: MinHashSignature) -> bytes:
    """The uint64-minima encoding an earlier release wrote."""
    return signature.to_bytes()[:12] + signature.values.astype("<u8").tobytes()


def test_minhash_uint64_payload_rejects_minima_no_hasher_produces():
    """A uint64 body is refused whatever it holds -- minima that would wrap
    to a plausible uint32, an empty set's non-sentinel minima, and the
    well-formed payloads an earlier release wrote -- while the same
    signatures in uint32 still decode."""
    signature = MinHasher(16).signature({"a", "b", "c"})
    empty = MinHasher(16).signature(set())
    wrapped = signature.values.astype(np.uint64)
    wrapped[2] += 2**32  # casts back to a plausible uint32 minimum
    nonempty_minima = empty.values.astype(np.uint64)
    nonempty_minima[-1] = 0
    for bad in (
        uint64_payload(with_values(signature, wrapped)),
        uint64_payload(with_values(empty, nonempty_minima, size=0)),
        uint64_payload(signature),
        uint64_payload(empty),
    ):
        with pytest.raises(ValueError):
            MinHashSignature.from_bytes(bad)
    assert MinHashSignature.from_bytes(signature.to_bytes()).to_bytes() == signature.to_bytes()
    assert MinHashSignature.from_bytes(empty.to_bytes()).size == 0


# ----------------------------------------------------------------------
# Array-backed bands == one dict per band
# ----------------------------------------------------------------------
def random_signatures(num_perm: int, count: int, seed: int) -> list[MinHashSignature]:
    """Signatures of overlapping sets over a small universe, so bands
    collide often and at every width."""
    rng = random.Random(seed)
    hasher = MinHasher(num_perm, seed=1)
    universe = [f"tok{i}" for i in range(120)]
    cores = [rng.sample(universe, rng.randint(2, 40)) for _ in range(6)]
    signatures = []
    for _ in range(count):
        core = rng.choice(cores)
        kept = [t for t in core if rng.random() < 0.9]
        signatures.append(hasher.signature(kept + rng.sample(universe, rng.randint(0, 4))))
    return signatures


@pytest.mark.parametrize(
    "num_perm, r",
    [(p, r) for p in (128, 100, 24) for r in (1, 2, 3, 4, 8, 16, 32) if r <= p],
)
def test_band_index_matches_the_dict_oracle_on_every_prefix(num_perm, r):
    signatures = random_signatures(num_perm, 80, seed=num_perm * 100 + r)
    index = BandedLSHIndex(np.stack([s.values for s in signatures]), r)
    oracle = DictBandedLSHIndex(num_perm, r)
    for row, signature in enumerate(signatures):
        oracle.insert(row, signature)
    assert index.b == oracle.b and len(index) == len(signatures)
    probes = signatures[:10] + random_signatures(num_perm, 10, seed=7)
    collided = 0
    for probe in probes:
        for bands in [None, *range(1, index.b + 1), index.b + 5]:
            rows = index.query(probe.values, bands=bands)
            assert rows.tolist() == sorted(oracle.query(probe, bands=bands))
            collided += len(rows)
    assert collided  # the comparison was not vacuous


@pytest.mark.parametrize(
    "num_perm", [pytest.param(128, id="128-size-buckets"), pytest.param(48, id="48-size-buckets")]
)
def test_ensemble_matches_the_dict_oracle(num_perm):
    signatures = random_signatures(num_perm, 150, seed=num_perm)
    entries = [(f"col{i:03d}", s) for i, s in enumerate(signatures)]
    ensemble = LSHEnsemble(num_perm=num_perm)
    ensemble.index_signatures(entries)
    oracle = DictLSHEnsemble(num_perm=num_perm)
    oracle.index_signatures(entries)
    matched = 0
    for probe in signatures[:15] + random_signatures(num_perm, 15, seed=11):
        for threshold in (0.0, 0.2, 0.35, 0.6, 0.9, 1.0):
            expected = oracle.query(probe, threshold)
            # Keys, containment floats and order: all identical.
            assert ensemble.query(probe, threshold=threshold) == expected
            assert ensemble.query(probe, threshold=threshold, k=3) == expected[:3]
            matched += len(expected)
    assert matched


def test_ensemble_rebuilt_from_its_signature_table_answers_identically():
    signatures = random_signatures(128, 60, seed=5)
    first = LSHEnsemble()
    first.index_signatures(enumerate(signatures))
    second = LSHEnsemble()
    second.index_table(
        list(range(len(signatures))),
        np.array([s.size for s in signatures]),
        np.stack([s.values for s in signatures]),
    )
    for probe in signatures[:10]:
        assert second.query(probe, threshold=0.3) == first.query(probe, threshold=0.3)
    # A later ``index`` call lands in the same table and invalidates
    # nothing it should not: the new key is found, the old answers stand.
    first.index([("late", {"tok1", "tok2", "tok3"})])
    assert any(m.key == "late" for m in first.query({"tok1", "tok2", "tok3"}, threshold=0.9))
    for probe in signatures[:10]:
        assert [m for m in first.query(probe, threshold=0.3) if m.key != "late"] == (
            second.query(probe, threshold=0.3)
        )
