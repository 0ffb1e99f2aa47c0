"""repro.shard: a content-hash-routed sharded lake (ROADMAP item 1).

A :class:`ShardedLakeStore` wraps N independent :class:`~repro.store.LakeStore`
shards under one manifest-of-manifests (``lake.json``): every table routes
to exactly one shard by a stable hash of its name, so an ingest or remove
rewrites -- and invalidates the persisted indexes of -- exactly one
shard.  The per-shard ``lake_version`` counters roll up into a
monotonic *lake epoch* that satisfies the same ``current_version()``
contract the serving layer's hot-reload path already polls.

Discovery becomes scatter-gather: :class:`ShardedLakeIndex` fits one
candidate engine + discoverer roster per shard (persisted per-shard,
version-pinned exactly like the single store), fans a profiled-once query
out to one worker process per shard, and reduces per-shard
answers with the deterministic total order the single-store pipeline uses
-- so the sharded top-k is byte-identical to the unsharded one on the same
tables (pinned by ``tests/property/test_shard_equivalence.py``).
"""

from .store import ShardedLakeStore, open_any_store, recover_any_store
from .index import ShardedLakeIndex

__all__ = [
    "ShardedLakeStore",
    "ShardedLakeIndex",
    "open_any_store",
    "recover_any_store",
]
