"""Unit tests for the shared candidate-generation engine (repro.candidates)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.candidates import (
    CandidateEngine,
    CandidateSet,
    CandidateSpec,
    EngineError,
    PostingIndex,
)
from repro.core.pipeline import Dialite
from repro.datalake import DataLake, LakeIndex, fixtures
from repro.shard import ShardedLakeStore
from repro.store import LakeStore
from repro.table import Table

from deltas import ENGINE_BUILDS, deltas


@pytest.fixture
def lake():
    return DataLake(
        [
            Table(["City", "Rate"], [("Berlin", 1), ("Boston", 2)], name="T1"),
            Table(["City", "Pop"], [("Berlin", 3), ("Rome", 4)], name="T2"),
            Table(["Name"], [("Alice",), ("Bob",)], name="T3"),
        ]
    )


@pytest.fixture
def engine(lake):
    return CandidateEngine(lake)


@pytest.fixture
def query():
    return Table(["City", "Score"], [("Berlin", 0.5), ("Rome", 0.7)], name="q")


class TestCandidateSpec:
    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown candidate channels"):
            CandidateSpec(channels=("telepathy",))

    def test_needs_a_channel(self):
        with pytest.raises(ValueError, match="at least one channel"):
            CandidateSpec(channels=())

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget"):
            CandidateSpec(channels=("tokens",), budget=0)

    def test_floor_semantics(self):
        assert CandidateSpec(channels=("tokens",), min_candidates=3).floor(k=7) == 3
        assert CandidateSpec(channels=("tokens",), min_candidates_is_k=True).floor(k=7) == 7

    def test_exhaustive_flag(self):
        assert CandidateSpec(channels=("exhaustive",)).exhaustive
        assert not CandidateSpec(channels=("tokens",)).exhaustive


class TestPostingIndex:
    def test_probe_counts_are_exact_overlaps(self):
        index = PostingIndex.build([(0, {"a", "b"}), (1, {"b", "c"}), (2, {"x"})])
        hits = index.probe({"a", "b", "c"})
        assert hits == {0: 2, 1: 2}
        assert index.postings["b"] == [0, 1]
        assert index.num_tokens == 4 and index.num_entries == 5

    def test_build_requires_dense_keys(self):
        with pytest.raises(ValueError, match="dense keys"):
            PostingIndex.build([(1, {"a"})])


class TestRegistry:
    def test_owner_resolution_and_table_grouping(self, engine):
        registry = engine.registry
        owners = {registry.owner(key) for key in range(len(registry))}
        assert ("T1", "City") in owners and ("T3", "Name") in owners
        assert set(registry.tables) == {"T1", "T2", "T3"}
        t2_keys = list(registry.keys_of(["T2"]))
        assert all(registry.owner(k)[0] == "T2" for k in t2_keys)


class TestGenericRetrieval:
    def test_token_channel_retrieves_sharing_tables(self, engine, query):
        spec = CandidateSpec(channels=("tokens",))
        candidates = engine.retrieve("d", spec, query, k=5, query_column="City")
        assert set(candidates) == {"T1", "T2"}  # share Berlin / Rome tokens
        assert "T3" not in candidates
        assert candidates.evidence_for("tokens:City")

    def test_intent_only_respected(self, engine, query):
        spec = CandidateSpec(channels=("tokens",), intent_only=False)
        both = engine.retrieve("d", spec, query, k=5, query_column="City")
        assert set(both.report.channels) == {"tokens"}
        assert both.report.probes >= 2  # City and Score both probed

    def test_budget_truncates_by_evidence(self, engine):
        query = Table(["City"], [("Berlin",), ("Boston",)], name="q")
        spec = CandidateSpec(channels=("tokens",), budget=1)
        candidates = engine.retrieve("d", spec, query, k=5)
        assert candidates.truncated
        assert list(candidates) == ["T1"]  # 2 shared tokens beats T2's 1

    def test_engine_default_budget_applies(self, engine):
        query = Table(["City"], [("Berlin",), ("Boston",)], name="q")
        engine.default_budget = 1
        candidates = engine.retrieve("d", CandidateSpec(channels=("tokens",)), query, k=5)
        assert candidates.truncated and len(candidates) == 1

    def test_budget_below_floor_does_not_fall_back(self, engine, query):
        """A budget smaller than the fallback floor must cap scoring at
        the budget -- never invert into a whole-lake scan.  The floor is
        judged on the pre-truncation retrieved count."""
        spec = CandidateSpec(channels=("tokens",), min_candidates=2, budget=1)
        candidates = engine.retrieve("d", spec, query, k=5, query_column="City")
        assert not candidates.fallback
        assert candidates.truncated
        assert len(candidates) == 1  # budget honored, lake is 3 tables
        report = candidates.report
        assert report.retrieved == 2 and report.scored == 1

    def test_min_candidates_falls_back_to_whole_lake(self, engine, query):
        spec = CandidateSpec(channels=("tokens",), min_candidates=3)
        candidates = engine.retrieve("d", spec, query, k=5, query_column="City")
        assert candidates.fallback
        assert set(candidates) == {"T1", "T2", "T3"}
        # Retrieval evidence survives the fallback.
        assert candidates.evidence_for("tokens:City")

    def test_exhaustive_spec_returns_all_without_evidence(self, engine, query):
        candidates = engine.retrieve("d", CandidateSpec(), query, k=5)
        assert set(candidates) == {"T1", "T2", "T3"}
        assert candidates.evidence is None
        with pytest.raises(KeyError, match="no retrieval evidence"):
            candidates.evidence_for("tokens:City")

    def test_force_exhaustive_overrides_any_spec(self, engine, query):
        engine.force_exhaustive = True
        candidates = engine.retrieve(
            "d", CandidateSpec(channels=("tokens",)), query, k=5
        )
        assert candidates.evidence is None
        assert candidates.report.exhaustive

    def test_sketch_channel_needs_custom_probes(self, engine, query):
        with pytest.raises(EngineError, match="discoverer-provided probes"):
            engine.retrieve("d", CandidateSpec(channels=("sketch",)), query, k=5)

    def test_empty_query_retrieves_nothing(self, engine):
        empty = Table(["City"], [], name="empty")
        candidates = engine.retrieve(
            "d", CandidateSpec(channels=("tokens",)), empty, k=0 + 1
        )
        assert len(candidates) == 0 and not candidates.fallback


class TestLabelChannel:
    def test_publish_and_retrieve(self, engine):
        engine.publish_labels("d:type", {"city": {"T1", "T2"}, "name": {"T3"}})
        spec = CandidateSpec(channels=("labels",))
        candidates = engine.label_candidates("d", spec, {"d:type": ["city"]}, k=5)
        assert set(candidates) == {"T1", "T2"}
        assert engine.label_namespaces == ["d:type"]

    def test_unpublished_namespace_is_empty(self, engine):
        spec = CandidateSpec(channels=("labels",))
        candidates = engine.label_candidates("d", spec, {"nope": ["x"]}, k=0 + 1)
        assert len(candidates) == 0


class TestAccounting:
    def test_reports_and_explain(self, engine, query):
        counted = deltas(
            "engine.retrievals", "engine.channel.tokens", "engine.channel.exhaustive"
        )
        d1 = engine.retrieve("d1", CandidateSpec(channels=("tokens",)), query, k=5)
        d2 = engine.retrieve("d2", CandidateSpec(), query, k=5)
        explain = {cs.report.discoverer: cs.report.to_json() for cs in (d1, d2)}
        assert explain["d1"]["retrieved"] == 2 and not explain["d1"]["exhaustive"]
        assert explain["d2"]["exhaustive"] and explain["d2"]["scored"] == 3
        assert counted() == {
            "engine.retrievals": 2,
            "engine.channel.tokens": 1,
            "engine.channel.exhaustive": 1,
        }

    def test_stats_reflect_materialized_channels(self, engine, query):
        stats = engine.stats()
        assert stats["token_postings"] is None  # lazy until first probe
        built = deltas(*ENGINE_BUILDS)
        engine.retrieve("d", CandidateSpec(channels=("tokens",)), query, k=5)
        stats = engine.stats()
        assert stats["token_postings"]["tokens"] > 0
        assert stats["columns"] == 5
        assert built() == {"engine.build.tokens": 1, "engine.build.values": 0}

    @pytest.mark.parametrize("shards", [None, 2])
    def test_a_threads_reports_are_its_own(self, tmp_path, shards):
        """``retrieval_reports()`` is the calling thread's last search, on
        either layout: a search another thread runs later does not
        replace it."""
        tables = fixtures.covid_integration_set() + fixtures.vaccine_integration_set()
        if shards is None:
            index = Dialite(tables).index
        else:
            store = ShardedLakeStore.create(tmp_path / "lake", num_shards=shards)
            store.ingest(DataLake(tables))
            index = Dialite(store=store).index

        def search(query, names=None):
            index.search(query, k=2, discoverer_names=names)
            return index.retrieval_reports()["josie"]

        a, b = ThreadPoolExecutor(max_workers=1), ThreadPoolExecutor(max_workers=1)
        try:
            mine = a.submit(search, fixtures.covid_query_table().with_name("qa")).result()
            theirs = b.submit(
                search, fixtures.vaccine_integration_set()[0].with_name("qb"), ["josie"]
            ).result()
            assert theirs != mine
            assert a.submit(lambda: index.retrieval_reports()["josie"]).result() == mine
        finally:
            a.shutdown()
            b.shutdown()
            index.close()


class TestCandidateSet:
    def test_container_protocol(self):
        cs = CandidateSet(tables=("a", "b"), evidence={}, _lake={})
        assert "a" in cs and "c" not in cs
        assert list(cs) == ["a", "b"] and len(cs) == 2


class TestWarmEngine:
    """A stored lake's engine builds its token channel from the stats
    snapshots' ``tokens`` fields: once, with no table hydrated and no
    segment decoded, into what a cold in-memory engine builds."""

    MOVES = ("store.decode", "store.stats_cache.rehydrates", *ENGINE_BUILDS)

    @staticmethod
    def assert_same_token_channel(warm, cold):
        assert warm.registry.owners == cold.registry.owners
        assert warm.registry.token_sizes == cold.registry.token_sizes
        assert warm.token_postings.postings == cold.token_postings.postings
        assert warm.token_postings.sizes == cold.token_postings.sizes

    @pytest.mark.parametrize("shards", [None, 2])
    def test_from_store_builds_the_cold_token_channel_once(self, tmp_path, lake, shards):
        if shards is None:
            store = LakeStore.create(tmp_path / "lake")
        else:
            store = ShardedLakeStore.create(tmp_path / "lake", num_shards=shards)
        store.ingest(lake)
        Dialite(store=store).fit().index.close()
        reopened = LakeStore.open if shards is None else ShardedLakeStore.open
        shards_of = (lambda s: [s]) if shards is None else (lambda s: s.shards)
        for shard in shards_of(reopened(store.path)):
            moved = deltas(*self.MOVES)
            warm = LakeIndex.from_store(shard)
            assert moved() == {
                "store.decode": 0,
                "store.stats_cache.rehydrates": 0,
                "engine.build.tokens": 1,
                "engine.build.values": 0,
            }
            assert not warm.fitted
            own = DataLake([lake[name] for name in shard.table_names])
            self.assert_same_token_channel(warm.engine, CandidateEngine(own))

    def test_a_sharded_lake_view_reads_each_shards_snapshots(self, tmp_path, lake):
        store = ShardedLakeStore.create(tmp_path / "lake", num_shards=2)
        store.ingest(lake)
        moved = deltas(*self.MOVES)
        engine = CandidateEngine(ShardedLakeStore.open(store.path).lake()).warm(("tokens",))
        assert moved()["store.stats_cache.rehydrates"] == 0
        in_lake_order = DataLake([lake[name] for name in store.lake()])
        self.assert_same_token_channel(engine, CandidateEngine(in_lake_order))

    def test_a_hydrated_table_serves_its_own_token_sets(self, tmp_path, lake):
        store = LakeStore.create(tmp_path / "lake")
        store.ingest(lake)
        store = LakeStore.open(store.path)
        hydrated = store.table_stats("T1")
        assert store.token_sets("T1") == {
            column: hydrated.column(column).tokens for column in ("City", "Rate")
        }
        assert store.token_sets("T2") == {
            column: lake["T2"].stats.column(column).tokens for column in ("City", "Pop")
        }
