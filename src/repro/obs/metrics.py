"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

The registry is the process-wide companion of :mod:`repro.obs.trace`:
spans answer "where did *this request's* time go", metrics answer "what
has this process been doing" -- segment decodes by format, stats-cache
hits, posting-probe dispatch counts, per-op latency quantiles.

Design constraints, in order:

* **Exact totals under contention.**  Every instrument takes its own
  ``threading.Lock`` for mutation, so N threads hammering one counter
  lose nothing (pinned by the concurrency test).  Reads are advisory
  snapshots.
* **Bounded memory.**  Histograms are fixed geometric buckets -- no
  reservoir, no per-observation storage -- so a long-running service's
  latency tracking is O(buckets) forever.  Quantiles are nearest-rank
  over the cumulative bucket counts: the reported value is the upper
  bound of the bucket holding the rank-th observation (clamped to the
  exact observed min/max), so ``p50 <= p95 <= max`` always holds and the
  error is bounded by the bucket's width.
* **Mergeable snapshots.**  ``snapshot()`` documents are plain JSON;
  :func:`merge_snapshots` folds two of them (counter sums, bucket sums,
  min/max folds, quantiles recomputed from the merged buckets), which is
  what a scatter-gather tier will need.

A module-level default registry carries the library-wide instruments
(store/engine/kernel); components with private lifecycles (a
``LakeService``'s ``service.*`` counters and latency histograms) hold
their own ``MetricsRegistry``.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from math import ceil, inf

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_SIZE_BUCKETS",
    "merge_snapshots",
    "global_registry",
    "reset_global_registry",
    "counter",
    "gauge",
    "histogram",
]

#: Geometric latency buckets (upper bounds, milliseconds): ~50us to 10s.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Power-of-two buckets for count-valued observations (probe sizes,
#: component sizes).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = tuple(
    float(1 << p) for p in range(0, 21, 2)
)


class Counter:
    """A monotonic counter (exact under concurrent increments)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (last write wins on snapshot)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram (see the module docstring's quantile
    contract).  *bounds* are inclusive upper bounds; one overflow bucket
    is appended automatically."""

    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds}")
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = inf
        self._max = -inf

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # The two unit-carrying spellings instrumented code uses.
    def observe_ms(self, ms: float) -> None:
        self.observe(ms)

    def observe_seconds(self, seconds: float) -> None:
        self.observe(seconds * 1000.0)

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the bucket counts (0 when empty)."""
        with self._lock:
            return _bucket_quantile(
                self.bounds, self._counts, self._count, self._min, self._max, q
            )

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            low = self._min if count else 0.0
            high = self._max if count else 0.0
        return {
            "count": count,
            "sum": round(total, 6),
            "min": round(low, 6),
            "max": round(high, 6),
            "p50": round(_bucket_quantile(self.bounds, counts, count, low, high, 0.50), 6),
            "p95": round(_bucket_quantile(self.bounds, counts, count, low, high, 0.95), 6),
            "p99": round(_bucket_quantile(self.bounds, counts, count, low, high, 0.99), 6),
            "buckets": {
                **{str(bound): counts[i] for i, bound in enumerate(self.bounds)},
                "+inf": counts[-1],
            },
        }


def _bucket_quantile(
    bounds: tuple[float, ...],
    counts: list[int],
    count: int,
    low: float,
    high: float,
    q: float,
) -> float:
    if count <= 0:
        return 0.0
    rank = max(1, min(count, ceil(q * count)))  # nearest-rank, 1-based
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank:
            value = bounds[i] if i < len(bounds) else high
            return min(high, max(low, value))
    return high  # pragma: no cover - cumulative always reaches count


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted together."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter())
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge())
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(bounds))
        return instrument

    def histograms(self, prefix: str = "") -> dict[str, Histogram]:
        """The histograms whose name starts with *prefix* (sorted)."""
        return {
            name: self._histograms[name]
            for name in sorted(self._histograms)
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """A JSON-friendly point-in-time view of every instrument."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        """Drop every instrument (tests; benchmarks isolating runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_snapshots(a: dict, b: dict) -> dict:
    """Fold two :meth:`MetricsRegistry.snapshot` documents: counters and
    bucket counts sum, gauges take *b* (latest writer), histogram
    quantiles are recomputed from the merged buckets."""
    counters = dict(a.get("counters", {}))
    for name, value in b.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    gauges = {**a.get("gauges", {}), **b.get("gauges", {})}
    histograms = dict(a.get("histograms", {}))
    for name, snap_b in b.get("histograms", {}).items():
        snap_a = histograms.get(name)
        histograms[name] = snap_b if snap_a is None else _merge_histogram(snap_a, snap_b)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _merge_histogram(a: dict, b: dict) -> dict:
    buckets_a, buckets_b = a["buckets"], b["buckets"]
    keys = list(buckets_a)  # snapshot bucket order: bounds ascending, +inf last
    buckets = {key: buckets_a[key] + buckets_b.get(key, 0) for key in keys}
    for key in buckets_b:
        if key not in buckets:
            buckets[key] = buckets_b[key]
    count = a["count"] + b["count"]
    if count == 0:
        low = high = 0.0
    elif a["count"] == 0:
        low, high = b["min"], b["max"]
    elif b["count"] == 0:
        low, high = a["min"], a["max"]
    else:
        low, high = min(a["min"], b["min"]), max(a["max"], b["max"])
    bounds = tuple(float(key) for key in buckets if key != "+inf")
    counts = [buckets[key] for key in buckets]
    return {
        "count": count,
        "sum": round(a["sum"] + b["sum"], 6),
        "min": round(low, 6),
        "max": round(high, 6),
        "p50": round(_bucket_quantile(bounds, counts, count, low, high, 0.50), 6),
        "p95": round(_bucket_quantile(bounds, counts, count, low, high, 0.95), 6),
        "p99": round(_bucket_quantile(bounds, counts, count, low, high, 0.99), 6),
        "buckets": buckets,
    }


# ----------------------------------------------------------------------
# The process-wide default registry (store / engine / kernel instruments)
# ----------------------------------------------------------------------
_GLOBAL = MetricsRegistry()

if hasattr(os, "register_at_fork"):
    # A forked shard worker counts its own work from zero: inherited
    # values would be reported once per worker by the merged view.  The
    # locks are re-created with the instruments (forked while a server
    # thread holds one, a worker would hang on its first counter).
    os.register_at_fork(after_in_child=_GLOBAL.__init__)


def global_registry() -> MetricsRegistry:
    return _GLOBAL


def reset_global_registry() -> None:
    """Clear the process-wide instruments (test isolation)."""
    _GLOBAL.reset()


def counter(name: str) -> Counter:
    """The process-wide counter *name* (created on first use)."""
    return _GLOBAL.counter(name)


def gauge(name: str) -> Gauge:
    return _GLOBAL.gauge(name)


def histogram(
    name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
) -> Histogram:
    return _GLOBAL.histogram(name, bounds)
