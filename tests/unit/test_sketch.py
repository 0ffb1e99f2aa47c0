"""Unit tests for MinHash / LSH / LSH Ensemble (repro.sketch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import (
    BandedLSHIndex,
    LSHEnsemble,
    MinHasher,
    collision_probability,
    containment_from_jaccard,
    optimal_param,
)


class TestMinHash:
    def test_identical_sets_estimate_one(self):
        hasher = MinHasher(128)
        a = hasher.signature({"x", "y", "z"})
        b = hasher.signature({"x", "y", "z"})
        assert a.jaccard(b) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        hasher = MinHasher(256)
        a = hasher.signature({f"a{i}" for i in range(50)})
        b = hasher.signature({f"b{i}" for i in range(50)})
        assert a.jaccard(b) < 0.05

    def test_estimate_within_three_sigma(self):
        hasher = MinHasher(256)
        big1 = {f"t{i}" for i in range(600)}
        big2 = {f"t{i}" for i in range(300, 900)}
        true_jaccard = 300 / 900
        estimate = hasher.signature(big1).jaccard(hasher.signature(big2))
        sigma = (true_jaccard * (1 - true_jaccard) / 256) ** 0.5
        assert abs(estimate - true_jaccard) < 3 * sigma + 0.02

    def test_signatures_deterministic_across_hashers(self):
        a = MinHasher(64, seed=5).signature({"p", "q"})
        b = MinHasher(64, seed=5).signature({"p", "q"})
        assert np.array_equal(a.values, b.values)

    def test_mismatched_signatures_rejected(self):
        a = MinHasher(64).signature({"x"})
        b = MinHasher(32).signature({"x"})
        with pytest.raises(ValueError):
            a.jaccard(b)

    def test_empty_set_signature(self):
        hasher = MinHasher(64)
        empty = hasher.signature(set())
        assert empty.size == 0
        assert empty.containment_in(hasher.signature({"x"})) == 0.0

    def test_invalid_num_perm(self):
        with pytest.raises(ValueError):
            MinHasher(0)

    def test_containment_conversion_exact(self):
        # j = 1/3 with |A| = |B| = 2 -> intersection 1 -> containment 0.5
        assert containment_from_jaccard(1 / 3, 2, 2) == pytest.approx(0.5)
        assert containment_from_jaccard(1.0, 5, 5) == 1.0
        assert containment_from_jaccard(0.5, 0, 10) == 0.0


class TestBandedLSH:
    def test_collision_probability_monotone(self):
        lows = collision_probability(0.2, b=16, r=8)
        highs = collision_probability(0.9, b=16, r=8)
        assert lows < highs

    def test_optimal_param_respects_budget(self):
        b, r = optimal_param(0.5, num_perm=128, allowed_r=(1, 2, 4, 8, 16, 32))
        assert b * r <= 128

    def test_high_threshold_prefers_wide_bands(self):
        _, r_low = optimal_param(0.1, 128, allowed_r=(1, 2, 4, 8, 16, 32))
        _, r_high = optimal_param(0.95, 128, allowed_r=(1, 2, 4, 8, 16, 32))
        assert r_high > r_low

    def test_index_finds_similar(self):
        hasher = MinHasher(128)
        base = {f"x{i}" for i in range(100)}
        near = hasher.signature(base | {"extra"})
        far = hasher.signature({f"y{i}" for i in range(100)})
        index = BandedLSHIndex(np.stack([near.values, far.values]), r=4)
        hits = index.query(hasher.signature(base).values)
        assert hits.tolist() == [0]  # row 0 = near; far never collides

    def test_prefix_bands_subset(self):
        hasher = MinHasher(64)
        sig = hasher.signature({"a", "b", "c"})
        index = BandedLSHIndex(sig.values[None, :], r=2)
        assert set(index.query(sig.values, bands=1)) <= set(index.query(sig.values))
        assert index.query(sig.values, bands=1).tolist() == [0]

    def test_invalid_r_rejected(self):
        matrix = np.zeros((1, 64), dtype=np.uint32)
        with pytest.raises(ValueError):
            BandedLSHIndex(matrix, r=0)
        with pytest.raises(ValueError):
            BandedLSHIndex(matrix, r=65)


class TestLSHEnsemble:
    def test_containment_search_finds_superset(self):
        ensemble = LSHEnsemble(num_perm=128)
        query = {f"q{i}" for i in range(40)}
        entries = [("super", query | {f"s{i}" for i in range(100)})]
        entries += [
            (f"noise{j}", {f"n{j}_{i}" for i in range(40)}) for j in range(10)
        ]
        ensemble.index(entries)
        matches = ensemble.query(query, threshold=0.7)
        assert matches and matches[0].key == "super"
        assert matches[0].containment > 0.8
        assert all(m.key != "noise0" for m in matches)

    def test_partition_count_respected(self):
        ensemble = LSHEnsemble(num_perm=64)
        ensemble.index([(f"k{i}", {f"t{i}_{j}" for j in range(i + 2)}) for i in range(9)])
        assert len(ensemble) == 9

    def test_results_sorted_and_truncated(self):
        ensemble = LSHEnsemble(num_perm=128)
        query = {f"q{i}" for i in range(30)}
        ensemble.index(
            [
                ("full", set(query)),
                ("half", {f"q{i}" for i in range(15)} | {f"z{i}" for i in range(15)}),
            ]
        )
        matches = ensemble.query(query, threshold=0.2, k=1)
        assert len(matches) == 1
        assert matches[0].key == "full"

    def test_empty_query(self):
        ensemble = LSHEnsemble()
        ensemble.index([("k", {"a"})])
        assert ensemble.query(set(), threshold=0.5) == []

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            LSHEnsemble().query({"a"}, threshold=1.5)

    def test_incremental_insert(self):
        ensemble = LSHEnsemble(num_perm=64)
        ensemble.index([("first", {"x", "y", "z"})])
        ensemble.index([("solo", {"a", "b", "c"})])
        matches = ensemble.query({"a", "b", "c"}, threshold=0.9)
        assert [m.key for m in matches] == ["solo"]


class TestSketchSerialization:
    """to_bytes/from_bytes round trips and cross-process determinism --
    the contract the persistent lake store's snapshots rely on."""

    def test_minhash_round_trip_byte_identical(self):
        hasher = MinHasher(64, seed=5)
        signature = hasher.signature({"a", "b", "c", "dd"})
        payload = signature.to_bytes()
        restored = type(signature).from_bytes(payload)
        assert restored.to_bytes() == payload
        assert restored.size == signature.size
        assert restored.jaccard(signature) == 1.0

    def test_minhash_rejects_truncated_payload(self):
        hasher = MinHasher(16)
        payload = hasher.signature({"a"}).to_bytes()
        with pytest.raises(ValueError):
            type(hasher.signature({"a"})).from_bytes(payload[:-3])

    def test_minhash_merge_is_union_signature(self):
        hasher = MinHasher(128, seed=2)
        left = hasher.signature({f"a{i}" for i in range(30)})
        right = hasher.signature({f"b{i}" for i in range(30)})
        union = hasher.signature({f"a{i}" for i in range(30)} | {f"b{i}" for i in range(30)})
        merged = left.merge(right)
        assert merged.jaccard(union) == 1.0  # identical minima

    def test_minhash_merge_deterministic_and_commutative(self):
        hasher = MinHasher(64, seed=9)
        a = hasher.signature({"x", "y", "z"})
        b = hasher.signature({"y", "q"})
        assert a.merge(b).to_bytes() == b.merge(a).to_bytes()
        # And stable across fresh hashers (i.e. across processes).
        again = MinHasher(64, seed=9)
        assert (
            again.signature({"x", "y", "z"}).merge(again.signature({"y", "q"})).to_bytes()
            == a.merge(b).to_bytes()
        )

    def test_minhash_merge_rejects_mismatched_width(self):
        with pytest.raises(ValueError, match="different MinHashers"):
            MinHasher(16).signature({"a"}).merge(MinHasher(32).signature({"a"}))
