"""Discovery answers must not depend on ``PYTHONHASHSEED``.

A server and the oracle that checks it are different processes; so are
two replicas.  SANTOS used to sum its relationship / type scores in an
order that descended from frozenset iteration, so near-tied tables
ranked differently from one process to the next.  The same discovers are
run here in two interpreters under different hash seeds and must produce
byte-identical payloads (on the e2e benchmark's smoke lake, whose small
key vocabulary produces the near-ties).  A store built the same way is a
function of its content: every file but the discoverer pickles comes out
byte-identical too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads as wl
from repro import Dialite
from repro.datalake import DataLake
from repro.service import oracle_discover_payload

pipeline = Dialite(lake=DataLake(wl.sharded_lake(3, wl.SMOKE))).fit()
print(json.dumps([
    oracle_discover_payload(
        pipeline, wl.key_query(3, wl.SMOKE, "probe", i),
        k=wl.DISCOVER_K, query_column=wl.KEY_COLUMN,
    )
    for i in range(12)
], sort_keys=True))
"""


BUILD_SCRIPT = """
import sys
sys.path[:0] = sys.argv[2:]
from test_shard_equivalence import make_lake
from repro import Dialite
from repro.store import LakeStore

LakeStore.create(sys.argv[1]).ingest(make_lake(11))
Dialite.open(sys.argv[1]).fit()
"""


def run_under(hash_seed: str, script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def discover_under(hash_seed: str) -> str:
    return run_under(hash_seed, SCRIPT, str(ROOT / "benchmarks" / "e2e"))


def test_discover_payloads_are_identical_under_two_hash_seeds():
    first, second = discover_under("1"), discover_under("2")
    assert '"santos"' in first  # SANTOS took part in the answers compared
    assert first == second


def test_a_store_is_identical_under_two_hash_seeds(tmp_path):
    """The manifest, ``version.json``, segments and stats snapshots.  The
    ``indexes/*.pkl`` pickles are left out: SANTOS's pickled state keeps
    set iteration order, which moves with the hash seed."""
    tests = Path(__file__).resolve().parents[1]
    trees = []
    for hash_seed in ("1", "2"):
        store = tmp_path / f"seed{hash_seed}"
        run_under(
            hash_seed, BUILD_SCRIPT, str(store), str(tests), str(tests / "property")
        )
        trees.append({
            str(file.relative_to(store)): file.read_bytes()
            for file in sorted(store.rglob("*"))
            if file.is_file() and not file.match("indexes/*.pkl")
        })
    assert {"manifest.json", "version.json"} <= set(trees[0])
    assert any(name.startswith("segments/") for name in trees[0])
    assert any(name.startswith("stats/") for name in trees[0])
    assert trees[0] == trees[1]
