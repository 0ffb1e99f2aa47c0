"""A bytes-per-column budget for the persisted store, and the packaging
metadata that says what the library needs.

The store once held every MinHash signature eight times over (base64
uint64 in the stats files, a pickled array and six pickled band-key
copies next to the postings) and 4096 dense HyperLogLog registers for
columns of sixteen values: 16.4 KB per column on the lake below, found
only when an end-to-end benchmark added up the directory.  The budget
makes the next such duplication fail tier-1 instead.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

import repro
from repro import Dialite
from repro.datalake import DataLake
from repro.shard import ShardedLakeStore

ROOT = Path(__file__).resolve().parents[2]

#: Measured 2544 B/column when the budget was set; every sketch stored
#: a second time would add about 800.
BUDGET_BYTES_PER_COLUMN = 3200


def test_smoke_sharded_lake_stays_under_the_bytes_per_column_budget(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks" / "e2e"))
    import workloads as wl  # the e2e benchmark's seeded lakes

    tables = wl.sharded_lake(11, wl.SMOKE)
    store = ShardedLakeStore.create(tmp_path / "lake.store", num_shards=wl.SMOKE.shards)
    store.ingest(DataLake(tables))
    Dialite(store=store).fit().index.close()  # default roster, persisted per shard

    columns = sum(len(table.columns) for table in tables)
    sizes = store.artifact_bytes()
    total = sum(f.stat().st_size for f in store.path.rglob("*") if f.is_file())
    assert list(sizes) == ["segments", "stats", "indexes"]
    assert all(size > 0 for size in sizes.values())
    assert not any(shard.path.joinpath("postings").exists() for shard in store.shards)
    assert total / columns <= BUDGET_BYTES_PER_COLUMN, (
        f"{total / columns:.0f} B/column over {columns} columns; by class: {sizes}"
    )


def test_pyproject_declares_the_package_and_what_it_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["name"] == "repro"
    assert project["project"]["version"] == repro.__version__
    assert any(d.startswith("numpy") for d in project["project"]["dependencies"])
    assert {"pytest", "hypothesis"} <= set(project["project"]["optional-dependencies"]["dev"])
    assert project["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
