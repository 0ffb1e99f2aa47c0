"""The versioned result cache: ``(lake_version, request key)`` -> reply bytes.

What is cached is the canonical JSON *bytes* of a payload -- the exact
slice of the reply line that goes on the socket -- never the payload's
object graph: an entry costs its wire size plus one ``bytes`` header
(a ~20 KB integrate reply was ~6x that as nested lists of cells), a hit
needs no encoder, and "a reply stamped ``v`` is byte-identical to a
fresh pipeline's at ``v``" is equality of two byte strings.

Policy is :class:`~repro.store.lru.LRUCache`'s, unchanged: capacity is
counted in entries, ``get`` refreshes recency, entries older than the
TTL are dropped on access.  Keys carry the lake version, so any ingest
invalidates by version, never by enumeration; entries of a superseded
version simply age out.
"""

from __future__ import annotations

import json
from typing import Any, Hashable

from ..obs.metrics import MetricsRegistry
from ..store.lru import LRUCache

__all__ = ["ResultCache", "encode_payload"]


def encode_payload(document: Any) -> bytes:
    """The canonical JSON bytes of a reply document: the one encoder
    behind every byte the server writes, run exactly once per computed
    payload.  Raises ``TypeError`` / ``ValueError`` for a document that
    is not JSON-serialisable."""
    return json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode(
        "utf-8"
    )


class ResultCache:
    """Thread-safe; shared by request threads and pool workers."""

    def __init__(
        self,
        capacity: int | None,
        ttl: float | None,
        registry: MetricsRegistry,
    ):
        self._entries = LRUCache(capacity, ttl=ttl)
        self._entries_gauge = registry.gauge("service.cache.entries")
        self._bytes_gauge = registry.gauge("service.cache.bytes")

    def get(self, version: int, key: Hashable) -> bytes | None:
        return self._entries.get((version, key))

    def put(self, version: int, key: Hashable, wire: bytes) -> None:
        if not isinstance(wire, bytes):
            # The gauges and the per-entry memory bound both rest on it.
            raise TypeError(f"the result cache holds bytes, got {type(wire).__name__}")
        self._entries.put((version, key), wire)

    def publish(self) -> None:
        """Refresh ``service.cache.entries`` / ``service.cache.bytes``
        from what is held right now (called when a metrics snapshot is
        taken: exact at that instant, nothing on the request path)."""
        held = self._entries.values()
        self._entries_gauge.set(len(held))
        self._bytes_gauge.set(sum(map(len, held)))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    @property
    def expirations(self) -> int:
        return self._entries.expirations
