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

Beside the entries sits the **in-flight table** (single-flight): a
caller that misses either joins the :class:`Flight` already computing
its ``(lake_version, request key)`` or leads a new one, so identical
concurrent requests execute once, and a request that arrives after a
reload never joins a flight of the older version.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Hashable

from ..obs.metrics import MetricsRegistry
from ..store.lru import LRUCache

__all__ = ["ResultCache", "Flight", "encode_payload"]


def encode_payload(document: Any) -> bytes:
    """The canonical JSON bytes of a reply document: the one encoder
    behind every byte the server writes, run exactly once per computed
    payload.  Raises ``TypeError`` / ``ValueError`` for a document that
    is not JSON-serialisable."""
    return json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode(
        "utf-8"
    )


class Flight:
    """One execution in flight and the callers waiting on ``done``.

    ``outcome`` / ``error`` are written once, before ``done`` is set;
    ``waiters`` (callers carried, the leader included) and ``gone``
    (those whose deadline lapsed) are guarded by the owning cache."""

    __slots__ = ("slot", "done", "outcome", "error", "waiters", "gone")

    def __init__(self, slot: Hashable | None = None):
        self.slot = slot
        self.done = threading.Event()
        self.outcome: Any = None
        self.error: BaseException | None = None
        self.waiters = 1
        self.gone = 0


class ResultCache:
    """Thread-safe; shared by request threads and pool workers."""

    def __init__(
        self,
        capacity: int | None,
        ttl: float | None,
        registry: MetricsRegistry,
    ):
        self._entries = LRUCache(capacity, ttl=ttl)
        self._flights: dict[Hashable, Flight] = {}
        self._flights_lock = threading.Lock()
        self._entries_gauge = registry.gauge("service.cache.entries")
        self._bytes_gauge = registry.gauge("service.cache.bytes")

    def get(self, version: int, key: Hashable) -> bytes | None:
        return self._entries.get((version, key))

    def put(self, version: int, key: Hashable, wire: bytes) -> None:
        if not isinstance(wire, bytes):
            # The gauges and the per-entry memory bound both rest on it.
            raise TypeError(f"the result cache holds bytes, got {type(wire).__name__}")
        self._entries.put((version, key), wire)

    def join_or_lead(self, version: int, key: Hashable | None) -> tuple[Flight, bool]:
        """The flight computing ``(version, key)`` and whether the caller
        leads it (must get it executed and :meth:`land` it) or joined one
        already in flight.  An uncacheable request (``key`` None) always
        leads a flight of its own that nobody can join."""
        if key is None:
            return Flight(), True
        slot = (version, key)
        with self._flights_lock:
            flight = self._flights.get(slot)
            if flight is not None:
                flight.waiters += 1
                return flight, False
            flight = self._flights[slot] = Flight(slot)
            return flight, True

    def leave(self, flight: Flight) -> None:
        """A caller stopped waiting; the flight goes on for the others."""
        with self._flights_lock:
            flight.gone += 1

    def abandoned(self, flight: Flight) -> bool:
        """True when every caller has stopped waiting -- and the flight
        is off the table, so nobody joins it afterwards: skip the
        execution and :meth:`land` it."""
        with self._flights_lock:
            if flight.gone < flight.waiters:
                return False
            self._flights.pop(flight.slot, None)
            return True

    def land(
        self,
        flight: Flight,
        outcome: Any = None,
        error: BaseException | None = None,
        wire: bytes | None = None,
    ) -> int:
        """Settle *flight* and wake its waiters; returns how many callers
        it carried.  *wire* is cached before the flight leaves the table,
        so a caller that no longer finds the flight finds its bytes."""
        if wire is not None and flight.slot is not None:
            self.put(*flight.slot, wire)
        with self._flights_lock:
            self._flights.pop(flight.slot, None)
            carried = flight.waiters
        flight.outcome, flight.error = outcome, error
        flight.done.set()
        return carried

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
