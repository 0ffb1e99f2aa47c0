"""Sharded scatter-gather vs single-store discovery equivalence.

ISSUE 8 tentpole guarantee: routing a lake across N content-hash
shards and fanning a query out (per-shard scoring + the one retrieval
judgement, re-run by the reducer over the whole lake) returns
**byte-identical top-k** to the unsharded pipeline, for every
discoverer and for every retrieval mode the reducer can take
(assemble, budget truncation, below-floor exhaustive fallback).

One precondition makes the comparison valid and is part of what the
test pins: both sides are *fresh builds* over the same lake.
Lake-global fit state (SANTOS synthesized KB, TUS corpus IDF) is
computed from the combined lake and pinned at build time; comparing a
pinned sharded index against a *re-fit* unsharded one after ingest would
measure fit-state drift, not reducer correctness.

Every shard count runs through the one executor there is: each shard is
fitted and served by its own worker process.  The artifact test pins
that what a worker persists is what an in-process build persists.

The incremental-ingest test pins the perf contract the routing rule
buys: one table's ingest rewrites exactly one shard (version bump +
file churn confined to the home shard; every other shard's persisted
bytes -- indexes, postings, segments, manifest -- are untouched).
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalake import DataLake, LakeIndex
from repro.discovery import (
    CocoaJoinSearch,
    JosieJoinSearch,
    LSHEnsembleJoinSearch,
    SantosUnionSearch,
    StarmieUnionSearch,
    TusUnionSearch,
)
from repro.shard import ShardedLakeIndex, ShardedLakeStore
from repro.shard.worker import adapted_roster
from repro.store import LakeStore
from repro.table import MISSING, Table

from deltas import deltas

SHARD_COUNTS = (1, 2, 4, 7)

VOCAB = [
    "berlin", "boston", "rome", "paris", "tokyo", "oslo", "lima", "cairo",
    "delhi", "quito", "accra", "hanoi",
]


def make_lake(seed: int) -> DataLake:
    rng = random.Random(seed)
    tables = []
    for t in range(rng.randint(3, 7)):
        num_rows = rng.randint(2, 8)
        columns = ["Key"] + [f"c{i}" for i in range(rng.randint(1, 3))]
        rows = []
        for _ in range(num_rows):
            cells = [rng.choice(VOCAB)]
            for i in range(len(columns) - 1):
                roll = rng.random()
                if roll < 0.15:
                    cells.append(MISSING)
                elif roll < 0.6:
                    cells.append(rng.choice(VOCAB))
                else:
                    cells.append(rng.randint(0, 50))
            rows.append(tuple(cells))
        tables.append(Table(columns, rows, name=f"t{t}"))
    return DataLake(tables)


def make_query(seed: int) -> Table:
    rng = random.Random(seed + 1)
    rows = [
        (rng.choice(VOCAB), rng.randint(0, 50), rng.choice(VOCAB))
        for _ in range(rng.randint(2, 8))
    ]
    return Table(["Key", "Metric", "Other"], rows, name="query")


def roster():
    return [
        JosieJoinSearch(),
        LSHEnsembleJoinSearch(),
        SantosUnionSearch(),
        TusUnionSearch(),
        StarmieUnionSearch(),
        CocoaJoinSearch(),
    ]


def comparable(answer):
    """Per-discoverer (table, score, discoverer) triples, order-preserving."""
    return {
        name: [(r.table_name, round(r.score, 9), r.discoverer) for r in results]
        for name, results in answer.items()
    }


def unsharded_answer(lake, query, k, budget=None):
    index = LakeIndex(lake, roster()).set_candidate_budget(budget).build()
    return comparable(index.search(query, k=k, query_column="Key"))


def sharded_answer(root, lake, query, k, num_shards, budget=None):
    store = ShardedLakeStore.create(root / f"lake-{num_shards}", num_shards=num_shards)
    store.ingest(lake)
    index = ShardedLakeIndex(store, roster())
    index.set_candidate_budget(budget)
    try:
        index.build()
        return comparable(index.search(query, k=k, query_column="Key"))
    finally:
        index.close()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sharded_topk_identical_for_every_shard_count(seed):
    lake = make_lake(seed)
    query = make_query(seed)
    for k in (3, 10):
        expected = unsharded_answer(lake, query, k)
        with tempfile.TemporaryDirectory() as tmp:
            for num_shards in SHARD_COUNTS:
                got = sharded_answer(Path(tmp), lake, query, k, num_shards)
                assert got == expected, (
                    f"seed={seed} k={k} shards={num_shards}: scatter-gather "
                    f"diverged from the single-store pipeline"
                )


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fallback_round_identical(seed):
    # k above the lake size forces the below-floor exhaustive fallback:
    # the reducer must re-scatter round 2 and still match the unsharded
    # engine's own fallback, result for result.
    lake = make_lake(seed)
    query = make_query(seed)
    k = len(lake) + 10
    expected = unsharded_answer(lake, query, k)
    with tempfile.TemporaryDirectory() as tmp:
        for num_shards in (2, 7):
            got = sharded_answer(Path(tmp), lake, query, k, num_shards)
            assert got == expected, f"seed={seed} shards={num_shards} (fallback)"


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_budget_truncation_identical(seed):
    # A global candidate budget must be enforced on the *union* of shard
    # retrievals (kept set by (-strength, name)), not per shard -- a
    # per-shard budget of 2 over 4 shards could keep 8 tables.
    lake = make_lake(seed)
    query = make_query(seed)
    expected = unsharded_answer(lake, query, 5, budget=2)
    with tempfile.TemporaryDirectory() as tmp:
        for num_shards in (2, 4):
            got = sharded_answer(Path(tmp), lake, query, 5, num_shards, budget=2)
            assert got == expected, f"seed={seed} shards={num_shards} (budget)"


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_retrieval_reports_equal_the_unsharded_engine(tmp_path, num_shards):
    """``discover --explain`` on a sharded store reports, field for field,
    what the plain engine records -- in the assemble (k=3), fallback
    (k=10, above every lake's size) and budget (budget=2, k=5) modes.
    ``probes`` counts the query side: what one engine probed, never a
    sum over shards."""
    modes = ((3, None), (10, None), (5, 2))
    for seed in range(4):
        lake, query = make_lake(seed), make_query(seed)
        expected = {}
        for k, budget in modes:
            plain = LakeIndex(lake, roster()).set_candidate_budget(budget).build()
            plain.search(query, k=k, query_column="Key")
            expected[k, budget] = plain.retrieval_reports()
        store = ShardedLakeStore.create(tmp_path / f"lake-{seed}", num_shards=num_shards)
        store.ingest(lake)
        index = ShardedLakeIndex(store, roster())
        try:
            index.build()
            for k, budget in modes:
                index.set_candidate_budget(budget)
                index.search(query, k=k, query_column="Key")
                assert index.retrieval_reports() == expected[k, budget], (
                    f"seed={seed} k={k} budget={budget}"
                )
        finally:
            index.close()


def test_disjoint_query_identical():
    lake = make_lake(seed=42)
    query = Table(["Key"], [("zzz",), ("yyy",)], name="query")
    expected = unsharded_answer(lake, query, 5)
    with tempfile.TemporaryDirectory() as tmp:
        for num_shards in SHARD_COUNTS:
            got = sharded_answer(Path(tmp), lake, query, 5, num_shards)
            assert got == expected


def test_search_merged_identical(tmp_path):
    """The integration-set construction: one merged, deduplicated ranking."""
    lake, query = make_lake(seed=11), make_query(seed=11)

    def merged(index):
        results = index.search_merged(query, k=5, query_column="Key")
        return [(r.table_name, round(r.score, 9), r.discoverer, r.reason) for r in results]

    expected = merged(LakeIndex(lake, roster()).build())
    assert expected
    store = ShardedLakeStore.create(tmp_path / "lake", num_shards=3)
    store.ingest(lake)
    index = ShardedLakeIndex(store, roster())
    try:
        assert merged(index.build()) == expected
    finally:
        index.close()


def _shard_digests(store: ShardedLakeStore) -> list[dict[str, str]]:
    """Per shard: every persisted file's relative path -> content hash."""
    digests = []
    for shard in store.shards:
        files = {}
        for path in sorted(shard.path.rglob("*")):
            if path.is_file():
                rel = str(path.relative_to(shard.path))
                files[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        digests.append(files)
    return digests


def test_single_table_ingest_rewrites_exactly_one_shard(tmp_path):
    lake = make_lake(seed=7)
    store = ShardedLakeStore.create(tmp_path / "lake", num_shards=4)
    store.ingest(lake)
    index = ShardedLakeIndex(store, roster())
    try:
        index.build()  # persists per-shard indexes + the lake-global fit state
    finally:
        index.close()

    before_versions = store.shard_versions()
    before_digests = _shard_digests(store)

    newcomer = Table(["Key", "c0"], [("berlin", "rome"), ("oslo", 3)], name="zz_new")
    home = store.shard_of(newcomer.name)
    store.ingest({newcomer.name: newcomer}, prune=False)

    after_versions = store.shard_versions()
    after_digests = _shard_digests(store)

    for i in range(store.num_shards):
        if i == home:
            assert after_versions[i] == before_versions[i] + 1
        else:
            # Untouched shards keep every persisted byte: manifest,
            # segments, postings, and the version-pinned index pickles.
            assert after_versions[i] == before_versions[i]
            assert after_digests[i] == before_digests[i], (
                f"shard {i} is not {newcomer.name}'s home but its files changed"
            )

    # The routed shard really did change (version bump is not cosmetic),
    # and its persisted indexes are now stale relative to its version.
    assert after_digests[home] != before_digests[home]
    info = store.shards[home].info()
    assert newcomer.name in info["tables"]


def _artifact_bytes(shard_path: Path) -> dict[str, bytes]:
    return {
        str(file.relative_to(shard_path)): file.read_bytes()
        for kind in ("indexes",)
        for file in sorted((shard_path / kind).iterdir())
    }


def test_worker_persisted_artifacts_equal_an_in_process_build(tmp_path):
    """Each shard is fitted and persisted in that shard's worker; what
    lands in ``indexes/`` and ``postings/`` is byte for byte what
    ``LakeIndex.build().save_to_store()`` writes for the same shard in
    this process (the forked workers share its string-hash seed)."""
    store = ShardedLakeStore.create(tmp_path / "lake", num_shards=4)
    store.ingest(make_lake(seed=11))
    ShardedLakeIndex(store, roster()).build().close()
    state = store.load_fit_state()
    for shard in store.shards:
        assert shard.info()["indexes_lake_version"] == shard.lake_version
        twin_path = tmp_path / "twin" / shard.path.name
        shutil.copytree(shard.path, twin_path)
        for kind in ("indexes",):
            shutil.rmtree(twin_path / kind)
        twin = LakeStore.open(twin_path)
        LakeIndex(twin.lake(), adapted_roster(roster(), state)).build().save_to_store(twin)
        assert _artifact_bytes(twin_path) == _artifact_bytes(shard.path)


# ----------------------------------------------------------------------
# In place == cold, at every version
# ----------------------------------------------------------------------
_EDITS = st.lists(
    st.tuples(st.sampled_from(["add", "replace", "remove"]), st.integers(0, 10_000)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), edits=_EDITS)
def test_in_place_reopen_equals_cold_workers_at_every_version(seed, edits):
    """Any sequence of single-table adds, replaces and removes served by
    one live service: after each, the reply equals what cold workers over
    the same store answer (both sides score with the pinned lake-global
    fit state, so the comparison is exact), and every shard -- the moved
    one included -- is still served by the worker it started with."""
    import os

    from repro.core.pipeline import Dialite
    from repro.service import LakeService, oracle_discover_payload

    lake, query = make_lake(seed), make_query(seed)
    for num_shards in (1, 2, 4):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "lake"
            ShardedLakeStore.create(root, num_shards=num_shards).ingest(lake)

            def pids(service):
                return [
                    lease.submit(os.getpid).result(timeout=30)
                    for lease in service.pipeline.index._leases
                ]

            serving = Dialite(store=ShardedLakeStore.open(root), discoverers=roster())
            with LakeService(
                pipeline=serving, workers=2, reload_check_interval=0.0
            ) as service:
                service.discover(query, k=5, query_column="Key")
                workers = pids(service)
                respawns = deltas("shard.worker.respawns")
                for step, (kind, pick) in enumerate(edits):
                    names = ShardedLakeStore.open(root).table_names
                    donor = make_lake(seed + step + 1)
                    content = donor[sorted(donor)[pick % len(donor)]]
                    if kind == "add" or len(names) < 2:
                        service.ingest([content.with_name(f"added{step}")])
                    elif kind == "replace":
                        service.ingest([content.with_name(names[pick % len(names)])])
                    else:
                        ShardedLakeStore.open(root).remove(names[pick % len(names)])
                    served = service.discover(query, k=5, query_column="Key")
                    store = ShardedLakeStore.open(root)
                    assert served.lake_version == store.lake_version
                    cold = Dialite(store=store, discoverers=roster()).fit()
                    try:
                        expected = oracle_discover_payload(
                            cold, query, k=5, query_column="Key"
                        )
                    finally:
                        cold.index.close()
                    assert served.payload == expected, (
                        f"seed={seed} shards={num_shards} step={step} {kind}"
                    )
                    assert pids(service) == workers
                    assert respawns() == {"shard.worker.respawns": 0}
