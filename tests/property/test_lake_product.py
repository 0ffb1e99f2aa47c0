"""The lake product: a discoverer's lake-global fit state, one protocol.

``Discoverer.lake_product(stats)`` computes it, ``adopt`` pins one
computed elsewhere, and ``fit`` installs a fresh one unless pinned.  A
sharded build relies on that being exact:

* **pinned == computed** -- a clone pinned with ``lake_product`` over a
  lake and then fitted to that lake pickles and answers exactly like a
  clone that is only fitted (SANTOS's KB, TUS's corpus IDF);
* **statistics only** -- every roster member's product over a stored
  lake materializes no table.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st
from test_shard_equivalence import make_lake, make_query, roster

from repro.datalake.stats import lake_stats
from repro.discovery import (
    FunctionDiscoverer,
    SantosUnionSearch,
    TusUnionSearch,
    value_overlap_similarity,
)
from repro.store import LakeStore


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
