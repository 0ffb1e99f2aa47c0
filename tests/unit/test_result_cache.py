"""The versioned result cache (repro.service.cache), on its own."""

from __future__ import annotations

import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache


def gauges(registry: MetricsRegistry) -> tuple[int, int]:
    snapshot = registry.snapshot()["gauges"]
    return snapshot["service.cache.entries"], snapshot["service.cache.bytes"]


def test_entries_are_scoped_to_the_lake_version():
    cache = ResultCache(8, None, MetricsRegistry())
    cache.put(1, ("discover", "abc"), b'{"results":[]}')
    assert cache.get(1, ("discover", "abc")) == b'{"results":[]}'
    assert cache.get(2, ("discover", "abc")) is None
    assert cache.get(1, ("discover", "abd")) is None


def test_only_bytes_are_held():
    cache = ResultCache(8, None, MetricsRegistry())
    with pytest.raises(TypeError):
        cache.put(1, "key", {"results": []})
    assert len(cache) == 0


def test_gauges_are_exact_across_put_overwrite_and_eviction():
    registry = MetricsRegistry()
    cache = ResultCache(2, None, registry)
    cache.publish()
    assert gauges(registry) == (0, 0)
    cache.put(1, "a", b"12345")
    cache.put(1, "b", b"123")
    cache.publish()
    assert gauges(registry) == (2, 8)
    cache.put(1, "a", b"1")  # overwrite: the old bytes no longer count
    cache.publish()
    assert gauges(registry) == (2, 4)
    cache.put(1, "c", b"1234567")  # evicts "b", the least recently used
    cache.publish()
    assert gauges(registry) == (2, 8)
    assert cache.evictions == 1 and cache.get(1, "b") is None


def test_ttl_expiry_is_counted_and_leaves_the_gauges():
    registry = MetricsRegistry()
    cache = ResultCache(8, 0.001, registry)
    cache.put(1, "a", b"12345")
    time.sleep(0.01)
    assert cache.get(1, "a") is None
    assert cache.expirations == 1
    cache.publish()
    assert gauges(registry) == (0, 0)
