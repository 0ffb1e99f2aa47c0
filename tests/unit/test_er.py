"""Unit tests for entity resolution (repro.er)."""

from __future__ import annotations

import pytest

from repro.er import (
    AttributeEquivalenceBlocker,
    EntityResolver,
    FeatureGenerator,
    FullBlocker,
    Gazetteer,
    LogisticRegressionMatcher,
    Record,
    RuleMatcher,
    TokenBlocker,
    canonicalize_cluster,
    cluster_matches,
    default_gazetteer,
    records_from_table,
)
from repro.table import MISSING, PRODUCED


@pytest.fixture
def records():
    return [
        Record.from_mapping("r1", {"name": "J&J", "country": "United States"}),
        Record.from_mapping("r2", {"name": "JnJ", "country": "USA"}),
        Record.from_mapping("r3", {"name": "Pfizer", "country": "United States"}),
        Record.from_mapping("r4", {"name": MISSING, "country": "Germany"}),
    ]


class TestRecords:
    def test_records_from_table_ids_match_oids(self, covid_query):
        records = records_from_table(covid_query)
        assert [r.record_id for r in records] == ["f1", "f2", "f3"]
        assert records[0].get("City") == "Berlin"

    def test_non_null_attributes(self):
        record = Record.from_mapping("x", {"a": 1, "b": MISSING})
        assert record.non_null_attributes() == ("a",)


class TestBlocking:
    def test_full_blocker_quadratic(self, records):
        pairs = FullBlocker().candidate_pairs(records)
        assert len(pairs) == 6

    def test_attribute_equivalence(self, records):
        pairs = AttributeEquivalenceBlocker("country").candidate_pairs(records)
        assert ("r1", "r3") in pairs
        assert ("r1", "r2") not in pairs  # "USA" != "United States" literally

    def test_attribute_equivalence_skips_nulls(self, records):
        pairs = AttributeEquivalenceBlocker("name").candidate_pairs(records)
        assert not any("r4" in pair for pair in pairs)

    def test_token_blocker_shares_tokens(self, records):
        pairs = TokenBlocker(["country"]).candidate_pairs(records)
        assert ("r1", "r3") in pairs

    def test_token_blocker_stop_tokens(self):
        # A token present in every record is ignored.
        many = [
            Record.from_mapping(f"r{i}", {"x": f"common thing{i}"}) for i in range(10)
        ]
        pairs = TokenBlocker(["x"], max_token_frequency=0.3).candidate_pairs(many)
        assert pairs == set()


class TestFeatures:
    def test_gazetteer_alias_hit(self):
        generator = FeatureGenerator(gazetteer=default_gazetteer())
        a = Record.from_mapping("a", {"c": "USA"})
        b = Record.from_mapping("b", {"c": "United States"})
        features = generator.features(a, b)
        assert features.comparable()["c"] == 1.0

    def test_null_attributes_not_comparable(self):
        generator = FeatureGenerator()
        a = Record.from_mapping("a", {"x": MISSING, "y": "v"})
        b = Record.from_mapping("b", {"x": "w", "y": PRODUCED})
        features = generator.features(a, b)
        assert features.comparable() == {}
        assert features.mean() == 0.0

    def test_numeric_similarity_tolerance(self):
        generator = FeatureGenerator()
        a = Record.from_mapping("a", {"v": 100.0})
        close = Record.from_mapping("b", {"v": 102.0})
        far = Record.from_mapping("c", {"v": 500.0})
        assert generator.features(a, close).comparable()["v"] > 0.5
        assert generator.features(a, far).comparable()["v"] == 0.0

    def test_quantity_strings_compared_numerically(self):
        generator = FeatureGenerator()
        a = Record.from_mapping("a", {"v": "1.4M"})
        b = Record.from_mapping("b", {"v": 1_400_000})
        assert generator.features(a, b).comparable()["v"] == 1.0

    def test_custom_gazetteer(self):
        gazetteer = Gazetteer([("Big Apple", "New York City")])
        assert gazetteer.same("big apple", "New York City")
        assert not gazetteer.same("big apple", "Boston")


class TestMatchers:
    def test_rule_matcher_needs_two_strong_signals(self):
        generator = FeatureGenerator(gazetteer=default_gazetteer())
        one = generator.features(
            Record.from_mapping("a", {"x": "JnJ", "y": MISSING}),
            Record.from_mapping("b", {"x": "JnJ", "y": PRODUCED}),
        )
        two = generator.features(
            Record.from_mapping("a", {"x": "JnJ", "y": "USA"}),
            Record.from_mapping("b", {"x": "J&J", "y": "United States"}),
        )
        matcher = RuleMatcher()
        assert not matcher.is_match(one)
        assert matcher.is_match(two)

    def test_rule_matcher_conflict_veto(self):
        generator = FeatureGenerator(gazetteer=default_gazetteer())
        pair = generator.features(
            Record.from_mapping("a", {"x": "JnJ", "y": "USA", "z": "totally"}),
            Record.from_mapping("b", {"x": "JnJ", "y": "USA", "z": "different"}),
        )
        assert not RuleMatcher().is_match(pair)

    def test_logreg_learns_separator(self):
        generator = FeatureGenerator(gazetteer=default_gazetteer())
        positives = [
            (Record.from_mapping(f"p{i}a", {"x": "Alpha", "y": "USA"}),
             Record.from_mapping(f"p{i}b", {"x": "Alpha", "y": "United States"}))
            for i in range(10)
        ]
        negatives = [
            (Record.from_mapping(f"n{i}a", {"x": "Alpha", "y": "USA"}),
             Record.from_mapping(f"n{i}b", {"x": "Omega9", "y": "Germany"}))
            for i in range(10)
        ]
        pairs = [generator.features(a, b) for a, b in positives + negatives]
        labels = [True] * 10 + [False] * 10
        matcher = LogisticRegressionMatcher(attributes=["x", "y"]).fit(pairs, labels)
        assert matcher.is_match(pairs[0])
        assert not matcher.is_match(pairs[-1])
        assert 0.0 <= matcher.predict_proba(pairs[0]) <= 1.0

    def test_logreg_requires_fit(self):
        matcher = LogisticRegressionMatcher(attributes=["x"])
        generator = FeatureGenerator()
        pair = generator.features(
            Record.from_mapping("a", {"x": "v"}), Record.from_mapping("b", {"x": "v"})
        )
        with pytest.raises(RuntimeError):
            matcher.is_match(pair)

    def test_logreg_fit_validations(self):
        matcher = LogisticRegressionMatcher(attributes=["x"])
        with pytest.raises(ValueError):
            matcher.fit([], [])


class TestClustering:
    def test_transitive_closure(self):
        clusters = cluster_matches(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
        assert ["a", "b", "c"] in clusters
        assert ["d"] in clusters

    def test_unknown_pair_rejected(self):
        with pytest.raises(KeyError):
            cluster_matches(["a"], [("a", "zz")])

    def test_numeric_aware_ordering(self):
        clusters = cluster_matches([f"f{i}" for i in range(1, 12)], [])
        assert clusters[0] == ["f1"]
        assert clusters[-1] == ["f11"]

    def test_canonicalize_prefers_majority_and_longest(self):
        records = [
            Record.from_mapping("a", {"n": "USA"}),
            Record.from_mapping("b", {"n": "United States"}),
            Record.from_mapping("c", {"n": MISSING}),
        ]
        entity = canonicalize_cluster(records, default_gazetteer())
        assert entity["n"] == "United States"

    def test_canonicalize_all_null_keeps_kind(self):
        records = [
            Record.from_mapping("a", {"n": MISSING}),
            Record.from_mapping("b", {"n": PRODUCED}),
        ]
        entity = canonicalize_cluster(records)
        assert entity["n"] is MISSING


class TestResolver:
    def test_resolve_table_end_to_end(self, records):
        result = EntityResolver().resolve_records(records)
        assert result.same_entity("r1", "r2")
        assert not result.same_entity("r1", "r3")
        assert result.num_entities == 3

    def test_duplicate_record_ids_rejected(self):
        twice = [
            Record.from_mapping("x", {"a": 1}),
            Record.from_mapping("x", {"a": 2}),
        ]
        with pytest.raises(ValueError, match="unique"):
            EntityResolver().resolve_records(twice)

    def test_entities_table_shape(self, records):
        result = EntityResolver().resolve_records(records)
        assert result.entities.num_rows == result.num_entities
        assert set(result.entities.columns) == {"name", "country"}

    def test_cluster_of_unknown_id(self, records):
        result = EntityResolver().resolve_records(records)
        with pytest.raises(KeyError):
            result.cluster_of("zz")
