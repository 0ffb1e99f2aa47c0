"""Incremental integration and offline index persistence.

Two deployment patterns the demo implies but never spells out:

1. a user keeps discovering tables and folding them into the running
   integration result (``AliteFD.integrate_incremental`` -- provably equal
   to re-integrating from scratch, warm-started by the previous result);
2. discovery indexes are built offline once into a lake store and
   reopened per session (``LakeStore`` / ``Dialite.open``), which is how
   Sec. 3.1's "indexes are already available for the user" works
   operationally.

Run:  python examples/incremental_integration.py
"""

import tempfile
from pathlib import Path

from repro import Dialite
from repro.analysis import fact_coverage
from repro.datalake import SyntheticLakeBuilder
from repro.integration import AliteFD
from repro.integration.tuples import cell_key
from repro.store import LakeStore

# --- a lake, indexed offline and persisted ----------------------------------
synth = SyntheticLakeBuilder(seed=13).build(num_unionable=3, num_joinable=3, num_distractors=5)
store_path = Path(tempfile.mkdtemp(prefix="dialite_")) / "lake.store"
store = LakeStore.create(store_path)
store.ingest(synth.lake)
Dialite.open(store).fit()  # what a fit had to fit, it persists
index_kib = store.artifact_bytes()["indexes"] / 1024
print(f"Offline indexes saved to {store_path} ({index_kib:.0f} KiB)")

# --- a later session: reopen, no rebuild -------------------------------------
session = Dialite.open(store_path)
query = synth.query.with_name("Q")
ranked = session.discover(query, k=4, query_column="City").merged
print(f"\nReopened store answers immediately: "
      f"{[r.table_name for r in ranked[:6]]}")

# --- fold discovered tables in one at a time ---------------------------------
fd = AliteFD()
result = fd.integrate([query])
print(f"\nIncremental integration, starting from the query "
      f"({result.num_rows} facts):")
for discovery in ranked[:4]:
    table = synth.lake[discovery.table_name]
    result = fd.integrate_incremental(result, table)
    coverage = fact_coverage(result.provenance)
    print(f"  + {table.name:<10} -> {result.num_rows:>3} facts, "
          f"{result.num_columns} attrs, "
          f"{coverage['merged_tuples']} merged")

# --- sanity: equal to batch integration --------------------------------------
batch = fd.integrate([query] + [synth.lake[r.table_name] for r in ranked[:4]])
same = sorted(tuple(map(cell_key, r)) for r in result.rows) == sorted(
    tuple(map(cell_key, r)) for r in batch.rows
)
print(f"\nIncremental result equals batch FD: {same}")
