"""Unit tests for the discovery layer (base API, SANTOS, LSH Ensemble,
JOSIE, user-defined)."""

from __future__ import annotations

import types

import pytest

from repro.candidates import CandidateEngine, CandidateSpec
from repro.discovery import (
    CocoaJoinSearch,
    Discoverer,
    DiscoveryResult,
    FunctionDiscoverer,
    JosieConfig,
    JosieJoinSearch,
    LSHEnsembleJoinSearch,
    SantosUnionSearch,
    StarmieUnionSearch,
    TusUnionSearch,
    inner_join_similarity,
    merge_result_sets,
    value_overlap_similarity,
)
from repro.table import Table


@pytest.fixture
def tiny_lake(covid_unionable, covid_joinable):
    people = Table(
        ["First Name", "Last Name"],
        [("Alice", "Smith"), ("Bob", "Chen"), ("Maria", "Garcia")],
        name="people",
    )
    return {"T2": covid_unionable, "T3": covid_joinable, "people": people}


def tables_reachable(root) -> list[Table]:
    """Every Table in *root*'s attribute graph, the candidate engine
    (shared lake-wide state, not the discoverer's own) excluded."""
    seen: set[int] = set()
    found: list[Table] = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (CandidateEngine, type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Table):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            slots = getattr(type(obj), "__slots__", ())
            for slot in (slots,) if isinstance(slots, str) else slots:
                stack.append(getattr(obj, slot, None))
    return found


class TestDiscovererContract:
    def test_scorer_cannot_read_a_table_retrieval_did_not_return(
        self, covid_query, tiny_lake
    ):
        class Peeking(Discoverer):
            name = "peeking"
            spec = CandidateSpec(channels=("tokens",))

            def _build_index(self, lake):
                pass

            def _search(self, query, k, query_column, candidates):
                assert "T3" in candidates and "people" not in candidates
                assert all(candidates.table(n).name == n for n in candidates)
                candidates.table("people")  # shares no token with the query
                return []

        with pytest.raises(KeyError, match="people"):
            Peeking().fit(tiny_lake).search(covid_query, k=3)

    @pytest.mark.parametrize(
        "make",
        [
            SantosUnionSearch,
            JosieJoinSearch,
            LSHEnsembleJoinSearch,
            TusUnionSearch,
            StarmieUnionSearch,
            CocoaJoinSearch,
            lambda: FunctionDiscoverer(value_overlap_similarity),
        ],
        ids=["santos", "josie", "lshe", "tus", "starmie", "cocoa", "user_defined"],
    )
    def test_fitted_discoverer_holds_no_table(self, make, tiny_lake):
        discoverer = make().fit(tiny_lake)
        assert discoverer.engine is not None
        assert tables_reachable(discoverer) == []

    def test_search_before_fit_raises(self, covid_query):
        with pytest.raises(RuntimeError, match="before fit"):
            SantosUnionSearch().search(covid_query)

    def test_k_must_be_positive(self, covid_query, tiny_lake):
        discoverer = SantosUnionSearch().fit(tiny_lake)
        with pytest.raises(ValueError):
            discoverer.search(covid_query, k=0)

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError):
            DiscoveryResult(table_name="x", score=-1.0, discoverer="d")

    def test_results_sorted_and_truncated(self, covid_query, tiny_lake):
        discoverer = SantosUnionSearch().fit(tiny_lake)
        results = discoverer.search(covid_query, k=1)
        assert len(results) <= 1


class TestSantos:
    def test_finds_unionable_table_first(self, covid_query, tiny_lake):
        discoverer = SantosUnionSearch().fit(tiny_lake)
        results = discoverer.search(covid_query, k=3, query_column="City")
        assert results
        assert results[0].table_name == "T2"

    def test_people_table_scores_lower(self, covid_query, tiny_lake):
        discoverer = SantosUnionSearch().fit(tiny_lake)
        scores = {r.table_name: r.score for r in discoverer.search(covid_query, k=5)}
        assert scores.get("people", 0.0) < scores["T2"]

    def test_annotation_has_located_in_relationship(self, covid_query, tiny_lake):
        discoverer = SantosUnionSearch().fit(tiny_lake)
        annotation = discoverer.annotate(covid_query)
        assert "located_in" in annotation.relationships
        assert "city" in annotation.column_types["City"]
        assert "country" in annotation.column_types["Country"]

    def test_reason_mentions_evidence(self, covid_query, tiny_lake):
        discoverer = SantosUnionSearch().fit(tiny_lake)
        top = discoverer.search(covid_query, k=1, query_column="City")[0]
        assert top.reason


class TestLSHEnsembleSearch:
    def test_finds_joinable_table(self, covid_query, tiny_lake):
        discoverer = LSHEnsembleJoinSearch().fit(tiny_lake)
        results = discoverer.search(covid_query, k=3, query_column="City")
        names = [r.table_name for r in results]
        assert "T3" in names

    def test_unknown_query_column_rejected(self, covid_query, tiny_lake):
        discoverer = LSHEnsembleJoinSearch().fit(tiny_lake)
        with pytest.raises(KeyError):
            discoverer.search(covid_query, query_column="Nope")

    def test_no_query_column_probes_all(self, covid_query, tiny_lake):
        discoverer = LSHEnsembleJoinSearch().fit(tiny_lake)
        results = discoverer.search(covid_query, k=5)
        assert results  # City column still drives matches


class TestJosie:
    def test_exact_overlap_ranking(self, covid_query, tiny_lake):
        discoverer = JosieJoinSearch().fit(tiny_lake)
        results = discoverer.search(covid_query, k=3, query_column="City")
        assert results[0].table_name in ("T2", "T3")
        # Scores are exact intersection sizes (integers).
        assert all(float(r.score).is_integer() for r in results)

    @staticmethod
    def top(sets, query, k, **config):
        """``[(table, overlap)]`` of JOSIE over one single-column table per set."""
        lake = {name: Table(["c"], [(t,) for t in sorted(tokens)], name=name) for name, tokens in sets}
        results = JosieJoinSearch(JosieConfig(min_domain_size=1, **config)).fit(lake).search(
            Table(["c"], [(t,) for t in sorted(query)], name="query"), k=k
        )
        return [(r.table_name, int(r.score)) for r in results]

    def test_exact_topk_overlap_function(self):
        sets = [("a", {"x", "y", "z"}), ("b", {"x"}), ("c", {"q"})]
        assert self.top(sets, {"x", "y"}, k=2) == [("a", 2), ("b", 1)]

    def test_exact_topk_respects_min_overlap(self):
        assert self.top([("a", {"x"}), ("b", {"y"})], {"x", "y"}, k=5, min_overlap=2) == []

    def test_k_validation(self):
        with pytest.raises(ValueError):
            self.top([("a", {"x"})], {"x"}, k=0)

    def test_early_termination_matches_naive(self):
        # Adversarial: many small sets, one big winner; the posting probe
        # must still produce the exact ranking.
        sets = [(f"s{i}", {f"tok{i}"}) for i in range(50)]
        sets.append(("win", {f"q{i}" for i in range(20)}))
        query = {f"q{i}" for i in range(20)} | {"tok0"}
        assert self.top(sets, query, k=2) == [("win", 20), ("s0", 1)]


class TestUserDefined:
    def test_function_discoverer_wraps_similarity(self, covid_query, tiny_lake):
        discoverer = FunctionDiscoverer(value_overlap_similarity, name="overlap").fit(tiny_lake)
        results = discoverer.search(covid_query, k=3)
        assert results
        assert all(r.discoverer == "overlap" for r in results)

    def test_inner_join_similarity_fig4(self, covid_query, covid_joinable):
        score = inner_join_similarity(covid_query, covid_joinable)
        assert score == pytest.approx(2 / 3)  # Berlin + Barcelona join

    def test_inner_join_similarity_no_shared_columns(self, covid_query):
        other = Table(["Z"], [("1",)], name="z")
        assert inner_join_similarity(covid_query, other) == 0.0

    def test_value_overlap_empty(self):
        a = Table(["x"], [(1,)], name="a")
        b = Table(["y"], [(2,)], name="b")
        assert value_overlap_similarity(a, b) == 0.0


class TestMergeResultSets:
    def test_union_keeps_best_raw_score_and_reports_finders(self):
        a = [DiscoveryResult("t", 0.5, "d1"), DiscoveryResult("u", 0.9, "d1")]
        b = [DiscoveryResult("t", 0.8, "d2")]
        merged = merge_result_sets([a, b], normalize=False)
        by_name = {r.table_name: r for r in merged}
        assert by_name["t"].score == 0.8
        assert "d1" in by_name["t"].reason and "d2" in by_name["t"].reason
        assert merged[0].table_name == "u"  # sorted by score

    def test_normalization_makes_scales_comparable(self):
        # JOSIE-style raw counts must not drown [0, 1] semantic scores.
        josie = [DiscoveryResult("j", 9.0, "josie"), DiscoveryResult("d", 3.0, "josie")]
        santos = [DiscoveryResult("s", 0.9, "santos"), DiscoveryResult("d2", 0.3, "santos")]
        merged = merge_result_sets([josie, santos])
        by_name = {r.table_name: r.score for r in merged}
        assert by_name["j"] == 1.0 and by_name["s"] == 1.0
        assert by_name["d"] == pytest.approx(1 / 3)

    def test_empty(self):
        assert merge_result_sets([]) == []

    def test_deterministic_tie_breaking(self):
        """ISSUE 3 satellite pin: merged order is (score desc, table asc,
        discoverer asc), and on a score tie the alphabetically first
        discoverer is credited -- independent of input order, so persisted
        integration sets are byte-reproducible across runs."""
        a = [DiscoveryResult("t", 1.0, "zeta"), DiscoveryResult("b", 1.0, "zeta")]
        b = [DiscoveryResult("t", 1.0, "alpha"), DiscoveryResult("a", 1.0, "alpha")]
        forward = merge_result_sets([a, b], normalize=False)
        backward = merge_result_sets([b, a], normalize=False)
        assert [(r.table_name, r.score, r.discoverer) for r in forward] == [
            (r.table_name, r.score, r.discoverer) for r in backward
        ]
        assert [r.table_name for r in forward] == ["a", "b", "t"]
        by_name = {r.table_name: r for r in forward}
        assert by_name["t"].discoverer == "alpha"  # tie -> lexicographic winner

    def test_same_pair_from_two_sources_keeps_max_score(self):
        """ISSUE 8 satellite pin: the sharded reducer may present the same
        (table, discoverer) pair in several result sets -- two shards each
        returning their local score for one table.  Dedup keeps the max
        score for the pair, lists the discoverer once in the reason line,
        and the merged order stays the (score desc, table asc, discoverer
        asc) total order regardless of which shard's copy arrives first."""
        shard_a = [
            DiscoveryResult("t", 0.4, "josie"),
            DiscoveryResult("u", 0.9, "josie"),
        ]
        shard_b = [
            DiscoveryResult("t", 0.7, "josie"),
            DiscoveryResult("t", 0.7, "santos"),
        ]
        forward = merge_result_sets([shard_a, shard_b], normalize=False)
        backward = merge_result_sets([shard_b, shard_a], normalize=False)
        key = lambda rs: [(r.table_name, r.score, r.discoverer, r.reason) for r in rs]
        assert key(forward) == key(backward)
        by_name = {r.table_name: r for r in forward}
        assert by_name["t"].score == 0.7  # max across sources, not first-seen
        assert by_name["t"].discoverer == "josie"  # 0.7 tie -> lexicographic
        # Each discoverer is credited once even though josie reported twice.
        assert by_name["t"].reason == "found by: josie, santos"
        assert [r.table_name for r in forward] == ["u", "t"]

    def test_equal_repeat_never_displaces_credited_entry(self):
        # A lower-or-equal repeat of the same pair is a no-op: strict >
        # on score, and the discoverer-name tie-break compares equal.
        first = [DiscoveryResult("t", 0.5, "josie", reason="r1")]
        repeat = [DiscoveryResult("t", 0.5, "josie", reason="r2")]
        merged = merge_result_sets([first, repeat], normalize=False)
        assert len(merged) == 1
        assert merged[0].score == 0.5
        assert merged[0].reason == "found by: josie"
