"""Unit tests for the text kernels (repro.text)."""

from __future__ import annotations

import pickle

import pytest

from repro.table.values import MISSING
from repro.text import (
    TfIdfWeights,
    acronym_score,
    cell_tokens,
    char_ngrams,
    column_token_set,
    containment,
    cosine_sets,
    dice,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    monge_elkan,
    name_similarity,
    numeric_fraction,
    overlap,
    parse_quantity,
    to_float,
    weighted_jaccard,
    word_ngrams,
    word_tokens,
)


class TestTokenizers:
    def test_word_tokens_split_punctuation(self):
        assert word_tokens("J&J vaccine") == ["j", "j", "vaccine"]
        assert word_tokens("New-Delhi 2021") == ["new", "delhi", "2021"]

    def test_char_ngrams_padded(self):
        assert char_ngrams("ab", 3) == ["#ab", "ab#"]
        assert char_ngrams("", 3) == []

    def test_char_ngrams_unpadded_short_string(self):
        assert char_ngrams("ab", 3, pad=False) == ["ab"]

    def test_word_ngrams(self):
        assert word_ngrams("a b c", 2) == ["a_b", "b_c"]
        assert word_ngrams("solo", 2) == ["solo"]
        assert word_ngrams("", 2) == []

    def test_cell_tokens(self):
        assert cell_tokens(MISSING) == []
        assert cell_tokens(True) == ["true"]
        assert cell_tokens(1.5) == ["1.5"]
        assert cell_tokens(1400000.0) == ["1.4e+06"]
        assert cell_tokens("Mexico City") == ["mexico", "city"]

    def test_column_token_set(self):
        assert column_token_set(["a b", "b c", MISSING]) == {"a", "b", "c"}


class TestSetSimilarity:
    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0
        assert jaccard({1}, set()) == 0.0

    def test_overlap(self):
        assert overlap({1, 2, 3}, {2, 3, 4}) == 2

    def test_containment_asymmetric(self):
        small, big = {1, 2}, {1, 2, 3, 4}
        assert containment(small, big) == 1.0
        assert containment(big, small) == 0.5
        assert containment(set(), big) == 0.0

    def test_dice_and_cosine(self):
        assert dice({1, 2}, {2, 3}) == pytest.approx(0.5)
        assert cosine_sets({1, 2}, {2, 3}) == pytest.approx(0.5)

    def test_weighted_jaccard(self):
        a = {"x": 2.0, "y": 1.0}
        b = {"x": 1.0, "z": 1.0}
        assert weighted_jaccard(a, b) == pytest.approx(1.0 / 4.0)
        assert weighted_jaccard({}, {}) == 1.0


class TestEditDistances:
    def test_levenshtein_basics(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0

    def test_levenshtein_similarity(self):
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("ab", "ab") == 1.0
        assert 0 < levenshtein_similarity("ab", "ax") < 1

    def test_jaro_known_value(self):
        # Classic example: MARTHA / MARHTA = 0.944...
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_jaro_winkler_boosts_prefix(self):
        assert jaro_winkler("prefixed", "prefixes") > jaro("prefixed", "prefixes")

    def test_jaro_edge_cases(self):
        assert jaro("", "x") == 0.0
        assert jaro("x", "x") == 1.0

    def test_monge_elkan_token_reorder(self):
        assert monge_elkan("United States", "States United") == pytest.approx(1.0)

    def test_acronym_score(self):
        assert acronym_score("US", "United States") == 1.0
        assert acronym_score("FDA", "Food and Drug Administration") == 1.0
        assert acronym_score("XYZ", "United States") == 0.0
        assert acronym_score("USA", "United States") == 0.0  # no third word

    def test_name_similarity_aliases(self):
        assert name_similarity("JnJ", "J&J") >= 0.7
        assert name_similarity("FDA", "Food and Drug Administration") == 1.0
        assert name_similarity("pfizer", "Pfizer") == 1.0
        assert name_similarity("Pfizer", "Moderna") < 0.7


class TestQuantities:
    def test_percent(self):
        assert parse_quantity("63%") == 63.0

    def test_magnitudes(self):
        assert parse_quantity("1.4M") == 1_400_000.0
        assert parse_quantity("263k") == 263_000.0
        assert parse_quantity("2B") == 2e9
        assert parse_quantity("1.5 million") == 1_500_000.0

    def test_separators_and_currency(self):
        assert parse_quantity("1,234,567") == 1_234_567.0
        assert parse_quantity("$1,200") == 1200.0
        assert parse_quantity("-5.5") == -5.5

    def test_non_quantities(self):
        assert parse_quantity("Berlin") is None
        assert parse_quantity("1.2.3") is None
        assert parse_quantity("") is None

    def test_to_float(self):
        assert to_float(3) == 3.0
        assert to_float(True) == 1.0
        assert to_float("42%") == 42.0
        assert to_float(MISSING) is None
        assert to_float("text") is None

    def test_numeric_fraction(self):
        assert numeric_fraction(["1", "2", "x", MISSING]) == 0.5
        assert numeric_fraction([]) == 0.0


class TestTfIdf:
    def test_rare_tokens_weigh_more(self):
        weights = TfIdfWeights()
        weights.add_document({"common", "rare"})
        weights.add_document({"common"})
        weights.add_document({"common"})
        assert weights.idf("rare") > weights.idf("common")

    def test_weighted_containment(self):
        weights = TfIdfWeights()
        weights.add_document({"a", "b"})
        weights.add_document({"a"})
        # query fully contained -> 1.0 regardless of weights.
        assert weights.weighted_containment({"a", "b"}, {"a", "b", "c"}) == 1.0
        partial = weights.weighted_containment({"a", "b"}, {"b"})
        assert 0.0 < partial < 1.0
        # The contained token (b) is the rarer one, so score > 0.5.
        assert partial > 0.5

    def test_empty_query(self):
        assert TfIdfWeights().weighted_containment(set(), {"a"}) == 0.0

    def test_pickles_independently_of_set_iteration_order(self):
        # 1 and 9 share a slot of a small set's table, so each set
        # iterates in its own insertion order.
        one, other = TfIdfWeights(), TfIdfWeights()
        one.add_document([1, 9])
        other.add_document([9, 1])
        assert list(set([1, 9])) != list(set([9, 1]))
        assert pickle.dumps(one) == pickle.dumps(other)
        assert pickle.loads(pickle.dumps(one)).idf(9) == one.idf(9)
