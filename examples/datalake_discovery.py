"""Discovery at lake scale: indexing, querying and measuring quality.

Builds a larger synthetic open-data lake (with ground truth), persists it to
CSV like a real lake directory, builds all three discovery indexes offline
(the demo's preprocessing step), and evaluates precision@k / recall@k of
each discoverer against the known ground truth -- experiment E10's workload
in example form.

Run:  python examples/datalake_discovery.py
"""

import tempfile
from pathlib import Path

from repro import Dialite, DataLake
from repro.datalake import SyntheticLakeBuilder

# --- build and persist a lake ------------------------------------------------
synth = SyntheticLakeBuilder(
    seed=42, rows_per_table=14, null_rate=0.08, header_synonym_rate=0.4
).build(num_unionable=6, num_joinable=6, num_distractors=14)

lake_dir = Path(tempfile.mkdtemp(prefix="dialite_lake_"))
synth.lake.save_to(lake_dir)
print(f"Synthetic lake: {len(synth.lake)} tables written to {lake_dir}")
print(f"  ground truth: {len(synth.truth.unionable)} unionable, "
      f"{len(synth.truth.joinable)} joinable, "
      f"{len(synth.truth.distractors)} distractors")

# --- reload from disk and build indexes offline -------------------------------
lake = DataLake.from_dir(lake_dir)
pipeline = Dialite(lake).fit()
print("\nOffline index build times:")
for name, seconds in pipeline.index.fitted.items():
    print(f"  {name:<14} {seconds * 1000:7.1f} ms")

# --- query and evaluate -------------------------------------------------------
query = synth.query.with_name("query")
K = 6


def precision_recall(found: list[str], relevant: frozenset[str], k: int):
    top = found[:k]
    hits = sum(1 for name in top if name in relevant)
    precision = hits / max(1, len(top))
    recall = hits / max(1, len(relevant))
    return precision, recall


print(f"\nPer-discoverer quality at k={K} (query column 'City'):")
per = pipeline.index.search(query, k=K, query_column="City")
for name, results in per.items():
    found = [r.table_name for r in results]
    if name == "santos":
        relevant = synth.truth.unionable
        target = "unionable"
    else:
        relevant = synth.truth.joinable
        target = "joinable"
    precision, recall = precision_recall(found, relevant, K)
    print(f"  {name:<14} P@{K}={precision:.2f}  R@{K}={recall:.2f}  (vs {target} truth)")

merged = pipeline.index.search_merged(query, k=K, query_column="City")
precision, recall = precision_recall(
    [r.table_name for r in merged], synth.truth.relevant(), 2 * K
)
print(f"  {'merged union':<14} P={precision:.2f}  R={recall:.2f}  (vs all relevant)")

# --- end to end ----------------------------------------------------------------
outcome = pipeline.discover(query, k=K, query_column="City")
integrated = pipeline.integrate(outcome)
print(f"\nIntegrated {len(outcome.integration_set)} tables -> "
      f"{integrated.num_rows} facts x {integrated.num_columns} attributes "
      f"(completeness {integrated.completeness():.2f})")
