"""A small thread-safe LRU map with optional TTL expiry.

Two caches are built on this one primitive:

* the :class:`~repro.store.lakestore.LakeStore` hydrated-stats cache
  (unbounded; its lock lets ``reopen`` iterate it while service threads
  hydrate into it), and
* the :mod:`repro.service` versioned result cache (capacity + TTL).

Semantics: ``get`` refreshes recency; ``put`` evicts the least recently
used entry once ``capacity`` is exceeded; entries older than ``ttl``
seconds (when set) are treated as absent and dropped on access.  A
``capacity`` of ``None`` means unbounded -- the right default for batch
use, where a process's working set is one run and then the process exits.
All operations take an internal lock, so one instance may be shared by
service worker threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

__all__ = ["LRUCache"]


class LRUCache:
    """``dict``-like recency cache; None capacity = unbounded."""

    def __init__(
        self,
        capacity: int | None = None,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1 or None, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"LRU ttl must be positive or None, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple[float, Any]]" = OrderedDict()
        #: Entries dropped to make room (monotonic; service stats read it).
        self.evictions = 0
        #: Entries dropped because their TTL lapsed.
        self.expirations = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            stamp, value = entry
            if self.ttl is not None and self._clock() - stamp > self.ttl:
                del self._entries[key]
                self.expirations += 1
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = (self._clock(), value)
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.pop(key, None)
            return default if entry is None else entry[1]

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, _SENTINEL) is not _SENTINEL

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def values(self) -> list[Any]:
        """Current values, least recently used first (a snapshot)."""
        with self._lock:
            return [value for _, value in self._entries.values()]

    def __iter__(self) -> Iterator[Hashable]:
        """Current keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._entries))

    def __repr__(self) -> str:
        cap = "unbounded" if self.capacity is None else self.capacity
        return f"LRUCache({len(self)}/{cap}, ttl={self.ttl})"


_SENTINEL = object()
