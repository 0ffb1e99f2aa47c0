"""The lake product: a discoverer's lake-global fit state, one protocol.

``Discoverer.lake_product(stats)`` computes it, ``adopt`` pins one
computed elsewhere, and ``fit`` installs a fresh one unless pinned.  A
sharded build relies on that being exact:

* **pinned == computed** -- a clone pinned with ``lake_product`` over a
  lake and then fitted to that lake pickles and answers exactly like a
  clone that is only fitted (SANTOS's KB, TUS's corpus IDF);
* **statistics only** -- every roster member's product over a stored
  lake materializes no table;
* **old stores keep working** -- a ``global_fit.pkl`` in the earlier
  ``{"kb", "idf"}`` layout, and SANTOS / TUS index pickles written before
  the product existed, still hydrate, serve and refit.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st
from test_shard_equivalence import (
    comparable,
    make_lake,
    make_query,
    roster,
    unsharded_answer,
)

from repro.datalake import DataLake, LakeIndex
from repro.datalake.stats import lake_stats
from repro.discovery import (
    FunctionDiscoverer,
    SantosUnionSearch,
    TusUnionSearch,
    value_overlap_similarity,
)
from repro.shard import ShardedLakeIndex, ShardedLakeStore
from repro.shard.store import load_fit_state
from repro.shard.worker import adapted_roster
from repro.store import LakeStore
from repro.table import Table


def answers(discoverer, query):
    return [
        (r.table_name, round(r.score, 9), r.reason)
        for r in discoverer.search(query, k=5, query_column="Key")
    ]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_a_pinned_product_fits_like_a_computed_one(seed):
    lake, query = make_lake(seed), make_query(seed)
    for proto in (SantosUnionSearch(), TusUnionSearch()):
        pinned = proto.clone_unfitted()
        pinned.adopt(proto.lake_product(lake_stats(lake)))
        pinned.fit(lake)
        computed = proto.clone_unfitted().fit(lake)
        assert pickle.dumps(pinned) == pickle.dumps(computed)
        assert answers(pinned, query) == answers(computed, query)


def test_products_read_statistics_only(tmp_path):
    store = LakeStore.create(tmp_path / "lake")
    store.ingest(make_lake(seed=3))
    lake = LakeStore.open(store.path).lake()
    everyone = [*roster(), FunctionDiscoverer(value_overlap_similarity)]
    products = {d.name: d.lake_product(lake.stats) for d in everyone}
    assert lake.loaded_names == []
    assert {name for name, product in products.items() if product is not None} == {
        "santos",
        "tus",
    }


def test_a_fit_state_in_the_earlier_layout_still_pins(tmp_path):
    """``global_fit.pkl`` as a sharded build wrote it before lake products:
    SANTOS's KB and TUS's IDF under separate keys.  It reads as the
    products it held, and a sharded build over it still answers what the
    unsharded pipeline does."""
    lake, query = make_lake(seed=19), make_query(seed=19)
    store = ShardedLakeStore.create(tmp_path / "lake", num_shards=2)
    store.ingest(lake)
    stats = store.lake().stats
    kb = SantosUnionSearch().lake_product(stats)
    idf = TusUnionSearch().lake_product(stats)
    (store.path / "global_fit.pkl").write_bytes(
        pickle.dumps(
            {"kb": {"santos": kb}, "idf": {"tus": idf}, "epoch": store.lake_version}
        )
    )
    state = load_fit_state(store.path)
    assert state["epoch"] == store.lake_version
    assert set(state["products"]) == {"santos", "tus"}
    pinned = {d.name: d for d in adapted_roster(roster(), state)}
    assert pinned["santos"]._product_pinned and pinned["tus"]._product_pinned
    assert not pinned["josie"]._product_pinned

    index = ShardedLakeIndex(store, roster())
    try:
        index.build()
        sharded = comparable(index.search(query, k=5, query_column="Key"))
    finally:
        index.close()
    assert sharded == unsharded_answer(lake, query, k=5)


def as_pickled_before_products(discoverer):
    """The same fitted index as it was pickled before lake products:
    SANTOS kept one KB (``_kb``) and no ``_seed_kb``; a shard's TUS
    carried an ``_idf_pinned`` flag."""
    state = discoverer.__getstate__()
    state.pop("_seed_kb", None)
    if isinstance(discoverer, TusUnionSearch):
        state["_idf_pinned"] = True
    old = object.__new__(type(discoverer))
    old.__dict__.update(state)
    return old


def test_indexes_pickled_before_products_hydrate_serve_and_refit(tmp_path):
    lake, query = make_lake(seed=31), make_query(seed=31)
    store = LakeStore.create(tmp_path / "lake")
    store.ingest(lake)
    fitted = LakeIndex(store.lake(), [SantosUnionSearch(), TusUnionSearch()]).build()
    store.save_indexes([as_pickled_before_products(d) for d in fitted.discoverers])

    hydrated = LakeStore.open(store.path).open_index()
    assert hydrated.fitted == {}
    assert comparable(hydrated.search(query, k=5, query_column="Key")) == comparable(
        fitted.search(query, k=5, query_column="Key")
    )

    # A reload after an ingest refits clones of what it served.
    newcomer = Table(["Key", "c0"], [("berlin", "oslo"), ("rome", "lima")], name="t9")
    store.ingest({newcomer.name: newcomer}, prune=False)
    refit = LakeStore.open(store.path).open_index(
        [d.clone_unfitted() for d in hydrated.discoverers]
    )
    fresh = LakeIndex(
        DataLake([*lake.values(), newcomer]), [SantosUnionSearch(), TusUnionSearch()]
    ).build()
    assert set(refit.fitted) == {"santos", "tus"}
    assert comparable(refit.search(query, k=5, query_column="Key")) == comparable(
        fresh.search(query, k=5, query_column="Key")
    )
    for old, new in zip(refit.discoverers, fresh.discoverers):
        product = "_kb" if isinstance(new, SantosUnionSearch) else "_idf"
        assert pickle.dumps(getattr(old, product)) == pickle.dumps(getattr(new, product))
