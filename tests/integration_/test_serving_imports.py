"""No serving process loads ``numpy.random`` or ``numpy.ma``.

Each subpackage costs every process that imports it a few MiB of mapped
extension modules and heap, and a sharded service pays that once per
shard worker.  Nothing a server or a worker runs needs either: MinHash
coefficients come from :mod:`repro.sketch.minhash`'s replica of numpy's
stream, and LSH buckets are deduplicated without ``np.unique`` (which
imports ``numpy.ma``).  The check runs in a fresh interpreter, because
pytest's own process may already hold both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SERVE = """
import json
import sys
from pathlib import Path

from repro.datalake import DataLake
from repro.service import LakeService
from repro.shard import ShardedLakeStore
from repro.store import LakeStore
from repro.table import Table

WATCHED = ("numpy.random", "numpy.ma")


def loaded():
    return [name for name in WATCHED if name in sys.modules]


def lake():
    return DataLake(
        [
            Table(
                ["City", "State", "Pop"],
                [(f"city{i}_{j}", f"state{j % 3}", i * j) for j in range(6)],
                name=f"t{i:02d}",
            )
            for i in range(8)
        ]
    )


root = Path(sys.argv[1])
ShardedLakeStore.create(root / "sharded", num_shards=2).ingest(lake())
LakeStore.create(root / "plain").ingest(lake())
query = Table(["City"], [("city3_2",), ("city3_4",)], name="q")
report = {}
for layout in ("sharded", "plain"):
    with LakeService(store=root / layout, workers=2, reload_check_interval=0.0) as service:
        service.discover(query, k=3, query_column="City")
        service.integrate(query=query, k=3, query_column="City")
        service.ingest([Table(["City", "State"], [("city3_2", "s0"), ("new", "s1")], name="t99")])
        service.discover(query, k=3, query_column="City")
        leases = getattr(service.pipeline.index, "_leases", [])
        report[layout] = {
            "server": loaded(),
            "workers": [lease.submit(loaded).result() for lease in leases],
        }
print(json.dumps(report))
"""


def test_no_serving_process_imports_numpy_random_or_numpy_ma(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SERVE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert len(report["sharded"]["workers"]) == 2  # every shard's worker probed
    assert report == {
        "sharded": {"server": [], "workers": [[], []]},
        "plain": {"server": [], "workers": []},
    }
