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


# ----------------------------------------------------------------------
# The in-flight table: get, join or lead
# ----------------------------------------------------------------------
def test_the_first_caller_leads_and_the_rest_join_until_it_lands():
    cache = ResultCache(8, None, MetricsRegistry())
    flight, leads = cache.join_or_lead(1, "k")
    assert leads and not flight.done.is_set()
    assert cache.join_or_lead(1, "k") == (flight, False)
    other, leads_other = cache.join_or_lead(2, "k")  # a later lake version
    assert leads_other and other is not flight
    assert cache.land(flight, outcome="reply", wire=b"reply") == 2
    assert flight.done.is_set() and (flight.outcome, flight.error) == ("reply", None)
    # Off the table with its bytes already cached: a latecomer that still
    # missed the cache leads afresh and finds them before executing.
    assert cache.get(1, "k") == b"reply"
    again, leads_again = cache.join_or_lead(1, "k")
    assert leads_again and again is not flight
    assert cache.get(2, "k") is None


def test_an_error_lands_for_every_waiter_and_caches_nothing():
    cache = ResultCache(8, None, MetricsRegistry())
    flight, _ = cache.join_or_lead(1, "k")
    cache.join_or_lead(1, "k")
    error = ValueError("boom")
    assert cache.land(flight, error=error) == 2
    assert flight.error is error and flight.outcome is None
    assert cache.get(1, "k") is None and cache.join_or_lead(1, "k")[1]


def test_an_uncacheable_request_always_leads_a_flight_nobody_joins():
    cache = ResultCache(8, None, MetricsRegistry())
    first, leads_first = cache.join_or_lead(1, None)
    second, leads_second = cache.join_or_lead(1, None)
    assert leads_first and leads_second and first is not second
    assert cache.land(first, outcome="x", wire=b"x") == 1
    assert len(cache) == 0


def test_a_flight_is_abandoned_only_when_every_waiter_left():
    cache = ResultCache(8, None, MetricsRegistry())
    flight, _ = cache.join_or_lead(1, "k")
    cache.join_or_lead(1, "k")
    cache.leave(flight)
    assert not cache.abandoned(flight)
    assert cache.join_or_lead(1, "k") == (flight, False)  # still joinable
    cache.leave(flight)
    cache.leave(flight)
    assert cache.abandoned(flight)
    assert cache.join_or_lead(1, "k")[0] is not flight  # nobody joins it now
    assert cache.land(flight) == 3  # slots of the callers who left included


def test_concurrent_claims_lose_no_waiter_and_lead_each_flight_once():
    """More threads than cores on a shortened switch interval: every
    claim is carried by exactly one flight that lands exactly once."""
    import sys
    import threading

    cache = ResultCache(8, None, MetricsRegistry())
    threads, rounds = 16, 200
    carried, woken = [], []
    tally = threading.Lock()

    def caller():
        for _ in range(rounds):
            flight, leads = cache.join_or_lead(1, "hot")
            if leads:
                count = cache.land(flight, outcome="done")
                with tally:
                    carried.append(count)
            assert flight.done.wait(10) and flight.outcome == "done"
            with tally:
                woken.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=caller) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert sum(carried) == len(woken) == threads * rounds
    assert cache.join_or_lead(1, "hot")[1]  # the table is empty again
