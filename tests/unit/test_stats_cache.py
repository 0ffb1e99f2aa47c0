"""The lake-wide column-stats cache: sharing, scan counting, invalidation.

The PR-level guarantee under test: a full DIALITE run (profile + fit every
discoverer + discover + align + integrate) performs each lake column's raw
scan, sketch and distinct computation **exactly once**, observable through
the scan counter on :class:`repro.datalake.stats.LakeStats`.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.pipeline import Dialite
from repro.datalake import DataLake, LakeStats, profile_lake
from repro.datalake.fixtures import covid_joinable_table, covid_query_table, covid_unionable_table
from repro.sketch.minhash import MinHasher
from repro.table import MISSING, Table
from repro.text.tokenize import column_token_set


@pytest.fixture
def lake():
    return DataLake([covid_unionable_table(), covid_joinable_table()])


class TestColumnStats:
    def test_one_pass_fills_everything(self):
        table = Table(
            ["City", "Rate"],
            [("Berlin", 63), ("Boston", MISSING), ("Berlin", 62)],
            name="T",
        )
        stats = table.stats.column("Rate")
        assert stats.scan_count == 0  # lazy until first use
        assert stats.values == [63, 62]
        assert stats.null_count == 1 and stats.missing_count == 1
        assert stats.distinct == {63, 62}
        assert stats.dtype == "int"
        assert stats.numeric_fraction == 1.0
        # All of that cost exactly one pass over the raw column.
        assert stats.scan_count == 1
        # Derived products don't re-scan.
        assert "63" in stats.tokens
        assert stats.minhash(MinHasher(16, seed=3)).size == len(stats.tokens)
        assert stats.scan_count == 1

    def test_dtype_matches_schema_inference(self):
        table = Table(
            ["i", "f", "s", "b", "m", "e"],
            [
                (1, 1.5, "x", True, 1, MISSING),
                (2, 2, "y", False, "z", MISSING),
            ],
            name="T",
        )
        for spec in table.schema:
            assert table.stats.column(spec.name).dtype == spec.dtype

    def test_sketches_memoized_per_parameters(self):
        table = Table(["c"], [("a",), ("b",)], name="T")
        stats = table.stats.column("c")
        hasher = MinHasher(32, seed=1)
        assert stats.minhash(hasher) is stats.minhash(MinHasher(32, seed=1))
        assert stats.minhash(hasher) is not stats.minhash(MinHasher(32, seed=2))

    def test_distinct_does_not_depend_on_row_order(self):
        """``True == 1 == 1.0`` and ``False == 0 == 0.0 == -0.0``: each
        class of equal cells keeps one member, the same in every order,
        and so does the snapshot's ``distinct`` field."""
        from repro.store.snapshot import SketchConfig, column_stats_payload

        found = {}  # distinct members by type and repr -> a column holding them
        for order in itertools.permutations([1, True, 0, False, 1.0, 0.0, -0.0, "x"]):
            stats = Table(["c"], [(cell,) for cell in order], name="T").stats.column("c")
            found.setdefault(frozenset((type(v), repr(v)) for v in stats.distinct), stats)
        config = SketchConfig(minhash_num_perm=8)
        persisted = {
            repr(column_stats_payload(stats, config)["distinct"]) for stats in found.values()
        }
        assert len(found) == len(persisted) == 1
        [members] = found
        assert len(members) == 3 and (str, "'x'") in members

    def test_tokens_do_not_depend_on_row_order(self):
        """``True == 1 == 1.0`` and ``False == 0 == -0.0``, so ``distinct``
        keeps one of each; the tokens are every cell's, in any order."""
        hasher = MinHasher(32, seed=1)
        found = []
        for cells in ([1, True, 0, False, 1.0, "x"], [0.0, -0.0, False]):
            seen = set()
            for order in itertools.permutations(cells):
                stats = Table(["c"], [(cell,) for cell in order], name="T").stats.column("c")
                seen.add((stats.tokens, stats.minhash(hasher).to_bytes()))
            [(tokens, _)] = seen
            assert tokens == column_token_set(cells)
            found.append(tokens)
        assert {"true", "false", "1", "0"} <= found[0]
        assert found[1] == {"0", "-0", "false"}

    def test_cached_views_are_read_only_but_list_like(self):
        table = Table(["c"], [(1,), (2,)], name="T")
        view = table.column("c")
        assert view == [1, 2] and view[1:] == [2]  # still list semantics
        with pytest.raises(TypeError, match="read-only"):
            view.sort()
        with pytest.raises(TypeError, match="read-only"):
            table.column_values("c").append(3)
        assert list(view) == [1, 2]  # explicit copy stays mutable
        import pickle

        assert pickle.loads(pickle.dumps(view)) == [1, 2]

    def test_new_table_starts_cold(self):
        table = Table(["c"], [(1,), (2,)], name="T")
        assert table.distinct_values("c") == {1, 2}
        derived = table.with_name("T2")
        # Identity-keyed invalidation: a derived table is a new cache.
        assert derived.stats.column("c").scan_count == 0


class TestLakeStats:
    def test_scan_counts_cover_every_column(self, lake):
        counts = lake.stats.warm().scan_counts()
        expected = {
            (name, column) for name, t in lake.items() for column in t.columns
        }
        assert set(counts) == expected
        assert all(count == 1 for count in counts.values())

    def test_warm_is_idempotent(self, lake):
        stats = lake.stats
        stats.warm()
        stats.warm()
        assert sum(stats.scan_counts().values()) == sum(
            t.num_columns for t in lake.values()
        )

    def test_view_reads_through(self, lake):
        view = LakeStats(lake)
        assert view.column("T2", "City").distinct == lake["T2"].distinct_values("City")
        assert view.table("T3") is lake["T3"].stats


class TestProfilerSharesTheCache:
    def test_profile_does_not_rescan_after_warm(self, lake):
        lake.stats.warm()
        profile = profile_lake(lake)
        assert profile.num_rows == sum(t.num_columns for t in lake.values())
        assert all(count == 1 for count in lake.stats.scan_counts().values())


class TestFullRunScansOnce:
    def test_discover_integrate_scans_each_lake_column_exactly_once(self, lake):
        pipeline = Dialite.with_all_discoverers(lake).fit()
        query = covid_query_table()
        outcome = pipeline.discover(query, k=5, query_column="City")
        integrated = pipeline.integrate(outcome)
        assert integrated.num_rows > 0
        counts = pipeline.lake.stats.scan_counts()
        assert counts, "scan ledger should not be empty"
        over_scanned = {key: n for key, n in counts.items() if n != 1}
        assert not over_scanned, f"columns scanned != once: {over_scanned}"
        # The query's own columns are likewise scanned exactly once across
        # all six discoverers and the aligner.
        assert all(n == 1 for n in query.stats.scan_counts.values())

    def test_discover_many_amortizes_query_stats(self, lake):
        pipeline = Dialite.with_all_discoverers(lake).fit()
        queries = [
            covid_query_table().with_name("q1"),
            covid_query_table().with_name("q2"),
        ]
        outcomes = [pipeline.discover(q, k=3, query_column="City") for q in queries]
        assert [o.query.name for o in outcomes] == ["q1", "q2"]
        for query in queries:
            assert all(n == 1 for n in query.stats.scan_counts.values())
        assert all(n == 1 for n in pipeline.lake.stats.scan_counts().values())

    def test_fanout_search_profiles_query_once(self, lake):
        """ISSUE 3 satellite pin: a direct ``LakeIndex.search`` fan-out over
        all six discoverers profiles the query table exactly once -- the
        scoped warm-up in ``search`` -- and every discoverer's retrieval
        and scoring phases read that one pass's products."""
        from repro.datalake import LakeIndex

        pipeline = Dialite.with_all_discoverers(lake)
        index = LakeIndex(pipeline.lake, pipeline.discoverers.components()).build()
        query = covid_query_table()
        per_discoverer = index.search(query, k=5, query_column="City")
        assert len(per_discoverer) == 6
        assert all(n == 1 for n in query.stats.scan_counts.values()), (
            query.stats.scan_counts
        )
        # A second fan-out re-reads the same cache: still exactly one pass.
        index.search(query, k=5, query_column="City")
        assert all(n == 1 for n in query.stats.scan_counts.values())
        # And the shared engine's retrieval structures never re-scan the
        # lake either: one pass per lake column, total.
        assert all(n == 1 for n in pipeline.lake.stats.scan_counts().values())

    def test_synthetic_lake_full_run_scans_once(self, small_synth_lake):
        """The ISSUE acceptance scenario: the synthetic lake end to end."""
        pipeline = Dialite.with_all_discoverers(small_synth_lake.lake).fit()
        outcome = pipeline.discover(
            small_synth_lake.query, k=5, query_column="City"
        )
        integrated = pipeline.integrate(outcome)
        assert integrated.num_rows > 0
        counts = pipeline.lake.stats.scan_counts()
        over_scanned = {key: n for key, n in counts.items() if n != 1}
        assert not over_scanned, f"columns scanned != once: {over_scanned}"
        assert all(
            n == 1 for n in small_synth_lake.query.stats.scan_counts.values()
        )


class TestReopenCarriesWhatDidNotMove:
    """``LakeStore.reopen`` hands the new handle the hydrated snapshot of
    every table whose manifest entry is equal in the new manifest: a
    re-open rehydrates what moved and nothing else."""

    @pytest.fixture
    def store(self, tmp_path):
        from repro.store import LakeStore

        tables = {
            f"t{i}": Table(["City", "n"], [(f"city{i}_{j}", j) for j in range(4)], name=f"t{i}")
            for i in range(5)
        }
        store = LakeStore.create(tmp_path / "store")
        store.ingest(tables)
        return LakeStore.open(tmp_path / "store")

    @staticmethod
    def rehydrates() -> int:
        from repro.obs import metrics

        return metrics.counter("store.stats_cache.rehydrates").value

    def test_rehydrates_rise_by_the_changed_tables(self, store):
        held = {name: store.table_stats(name) for name in store.table_names}
        writer = store.reopen()
        writer.ingest(
            {
                "t1": Table(["City", "n"], [("elsewhere", 1)], name="t1"),
                "t9": Table(["City"], [("new",)], name="t9"),
            },
            prune=False,
        )
        writer.remove("t4")
        fresh = store.reopen()
        before = self.rehydrates()
        for name in fresh.table_names:
            stats = fresh.table_stats(name)
            if name in ("t0", "t2", "t3"):
                # The identical object: a table that adopted it under the
                # old handle and one that adopts it under the new share
                # one scan ledger (the uid-keyed contract).
                assert stats is held[name]
        assert self.rehydrates() - before == 2  # t1 (replaced) and t9 (new)
        assert fresh.table_stats("t1") is not held["t1"]
        assert fresh.table_stats("t1").column("City").distinct == {"elsewhere"}
        with pytest.raises(KeyError):
            fresh.table_stats("t4")
        # A carried snapshot pages cells in from the segment, not from
        # the handle that hydrated it.
        del store, writer
        assert fresh.table_stats("t2").column("City").array == tuple(
            f"city2_{j}" for j in range(4)
        )
