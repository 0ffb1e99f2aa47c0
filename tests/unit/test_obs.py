"""Unit tests for the observability layer (repro.obs).

The contracts pinned here:

* **histogram quantiles vs an exact oracle** -- on random streams, the
  fixed-bucket nearest-rank estimate brackets the exact nearest-rank
  value from a sorted list: ``oracle <= estimate <= the oracle's bucket
  upper bound`` (and the estimate never exceeds the observed max);
* **exact totals under contention** -- counters and histograms hammered
  from many threads lose nothing (per-instrument locks, not best-effort);
* **span trees cross worker-pool boundaries** -- ``activate(tracer,
  parent=...)`` re-anchors a worker thread so its spans land under the
  submitting request's root, exactly how the service pool threads its
  tracer through the queue;
* **no-op recorder equivalence** -- code under ``trace.span(...)``
  behaves identically with and without an ambient tracer (same return
  values, no observable state), so instrumentation can ship enabled-off;
* **mergeable snapshots** -- counters sum, gauges last-win, histogram
  buckets sum and quantiles recompute;
* **span-derived kernel stats** -- ``fd_stats_from_span`` reproduces the
  historical ``--explain`` stats keys byte-for-byte, so the explain
  renderers can be thin views over trace data;
* **distributed trace ids** -- a tracer mints a 16-hex id or adopts one
  passed across a process boundary, ``to_dict`` stamps it on the root,
  and ``attach_tree`` grafts a worker's finished tree so scatter-gather
  requests render as one tree;
* **the trace renderer** -- ``format_trace`` (the ``repro trace`` /
  ``--trace`` output) shows the trace id on the root line, orders a
  scatter fan-out slowest-shard first, and surfaces error annotations.
"""

from __future__ import annotations

import json
import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import metrics, trace
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Tracer,
    activate,
    format_trace,
    new_trace_id,
)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The exact nearest-rank quantile the histogram approximates."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(q * n)))
    return sorted_values[rank - 1]


class TestHistogramQuantiles:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_bracketed_by_oracle_bucket(self, seed, q):
        rng = random.Random(seed)
        hist = Histogram(DEFAULT_LATENCY_BUCKETS_MS)
        values = [rng.expovariate(1 / 20.0) for _ in range(500)]
        for value in values:
            hist.observe(value)
        values.sort()
        oracle = nearest_rank(values, q)
        estimate = hist.quantile(q)
        upper_bounds = [b for b in DEFAULT_LATENCY_BUCKETS_MS if b >= oracle]
        oracle_bucket_top = upper_bounds[0] if upper_bounds else max(values)
        assert oracle <= estimate <= max(oracle_bucket_top, oracle)
        assert estimate <= max(values)

    def test_quantiles_monotone_and_snapshot_shape(self):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS_MS)
        rng = random.Random(42)
        for _ in range(200):
            hist.observe_ms(rng.uniform(0.01, 2000.0))
        snap = hist.snapshot()
        assert snap["count"] == 200
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        assert snap["min"] <= snap["p50"]
        assert sum(snap["buckets"].values()) == 200
        assert "+inf" in snap["buckets"]

    def test_empty_histogram(self):
        hist = Histogram((1.0, 10.0))
        assert hist.quantile(0.5) == 0.0
        assert hist.snapshot()["count"] == 0


class TestConcurrency:
    def test_counter_totals_exact(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 5000

        def hammer():
            counter = registry.counter("hits")
            for _ in range(per_thread):
                counter.inc()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert registry.counter("hits").value == threads * per_thread

    def test_histogram_totals_exact(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 2000

        def hammer(tid):
            hist = registry.histogram("lat", DEFAULT_LATENCY_BUCKETS_MS)
            for i in range(per_thread):
                hist.observe((tid * per_thread + i) % 97 + 0.5)

        workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        snap = registry.histogram("lat", DEFAULT_LATENCY_BUCKETS_MS).snapshot()
        assert snap["count"] == threads * per_thread
        assert sum(snap["buckets"].values()) == threads * per_thread


class TestSpanTrees:
    def test_nesting_and_counters(self):
        tracer = Tracer()
        with tracer.span("root", k=3):
            with tracer.span("child.a") as a:
                a.add(rows=10)
                a.add(rows=5)
            with tracer.span("child.b"):
                pass
        doc = tracer.to_dict()
        assert doc["name"] == "root"
        assert doc["counters"] == {"k": 3}
        assert [c["name"] for c in doc["children"]] == ["child.a", "child.b"]
        assert doc["children"][0]["counters"] == {"rows": 15}
        assert doc["wall_ms"] >= max(c["wall_ms"] for c in doc["children"])

    def test_worker_pool_boundary(self):
        """Spans opened on pool threads land under the submitting root,
        the same hand-off the service uses for queued requests."""
        tracer = Tracer()
        with tracer.span("request"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                def work(i):
                    with activate(tracer, parent=tracer.root):
                        with tracer.span(f"worker.{i}"):
                            return i
                assert sorted(pool.map(work, range(4))) == [0, 1, 2, 3]
        doc = tracer.to_dict()
        names = sorted(c["name"] for c in doc["children"])
        assert names == [f"worker.{i}" for i in range(4)]

    def test_ambient_span_helper(self):
        tracer = Tracer()
        with activate(tracer):
            with trace.span("outer"):
                with trace.span("inner", n=1):
                    pass
        doc = tracer.to_dict()
        assert doc["name"] == "outer"
        assert doc["children"][0]["name"] == "inner"

    def test_error_annotation(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.to_dict()["counters"]["error"] == "ValueError"

    def test_record_attaches_premeasured_child(self):
        tracer = Tracer()
        with tracer.span("root"):
            tracer.record("hot.loop", wall_s=0.25, items=100)
        child = tracer.to_dict()["children"][0]
        assert child["name"] == "hot.loop"
        assert child["wall_ms"] == 250.0
        assert child["counters"] == {"items": 100}

    def test_format_trace_renders_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf", n=2):
                pass
        rendered = format_trace(tracer.to_dict())
        assert "root" in rendered and "leaf" in rendered
        assert "└─" in rendered and "[n=2]" in rendered
        assert format_trace({}) == "(empty trace)"
        assert json.loads(json.dumps(tracer.to_dict()))  # JSON-safe


class TestTraceIds:
    def test_minted_id_is_16_hex(self):
        minted = new_trace_id()
        assert len(minted) == 16
        int(minted, 16)  # raises if not hex
        assert new_trace_id() != minted

    def test_adoption_vs_minting(self):
        assert Tracer(trace_id="deadbeefcafe0123").trace_id == "deadbeefcafe0123"
        tracer = Tracer()
        assert len(tracer.trace_id) == 16

    def test_to_dict_stamps_root_only(self):
        tracer = Tracer(trace_id="feedface00000001")
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        doc = tracer.to_dict()
        assert doc["trace_id"] == "feedface00000001"
        assert "trace_id" not in doc["children"][0]

    def test_attach_tree_grafts_worker_tree(self):
        """The process-boundary hand-off: a worker's finished to_dict
        tree re-attaches under the driver's scatter span verbatim."""
        worker = Tracer(trace_id="aa00aa00aa00aa00")
        with worker.span("shard[1]", tables=12, trace_id=worker.trace_id):
            with worker.span("probe"):
                pass
        shipped = worker.to_dict()  # crosses the pickle boundary as a dict

        driver = Tracer(trace_id="aa00aa00aa00aa00")
        with driver.span("discover") as scatter:
            driver.attach_tree(shipped, parent=scatter)
        doc = driver.to_dict()
        grafted = doc["children"][0]
        assert grafted["name"] == "shard[1]"
        assert grafted["counters"]["tables"] == 12
        assert grafted["counters"]["trace_id"] == "aa00aa00aa00aa00"
        assert [c["name"] for c in grafted["children"]] == ["probe"]
        assert grafted["wall_ms"] == shipped["wall_ms"]  # verbatim, not re-timed


def scatter_tree() -> dict:
    """A hand-built sharded discover tree in Span.to_dict shape: four
    shard children with distinct self times plus one error-annotated
    span, mirroring what a traced ``discover --service`` returns."""
    def node(name, self_ms, counters=None, children=()):
        children = list(children)
        wall = self_ms + sum(c["wall_ms"] for c in children)
        return {
            "name": name,
            "wall_ms": wall,
            "cpu_ms": wall,
            "self_ms": self_ms,
            "counters": dict(counters or {}),
            "children": children,
        }

    shards = [
        node("shard[0]", 12.0, {"trace_id": "0123456789abcdef"}),
        node("shard[1]", 48.0, {"trace_id": "0123456789abcdef"}),
        node(
            "shard[2]",
            3.0,
            {"trace_id": "0123456789abcdef", "error": "WorkerCrash"},
        ),
        node("shard[3]", 21.0, {"trace_id": "0123456789abcdef"}),
    ]
    scatter = node("discover.scatter", 1.0, {"shards": 4}, shards)
    root = node(
        "service.discover", 2.0, {"k": 5}, [scatter]
    )
    root["trace_id"] = "0123456789abcdef"
    return root


class TestTraceRenderer:
    def test_root_line_carries_trace_id(self):
        rendered = format_trace(scatter_tree())
        first_line = rendered.splitlines()[0]
        assert first_line.startswith("service.discover")
        assert "(trace 0123456789abcdef)" in first_line
        # Only the root advertises the id; child lines stay compact.
        assert sum("(trace " in line for line in rendered.splitlines()) == 1

    def test_scatter_children_sorted_slowest_first(self):
        rendered = format_trace(scatter_tree())
        order = [
            line.split("shard[")[1][0]
            for line in rendered.splitlines()
            if "shard[" in line
        ]
        assert order == ["1", "3", "0", "2"]  # by self_ms descending

    def test_error_annotation_rendered(self):
        rendered = format_trace(scatter_tree())
        [crashed] = [line for line in rendered.splitlines() if "shard[2]" in line]
        assert "error=WorkerCrash" in crashed

    def test_non_scatter_children_keep_call_order(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("b_first"):
                pass
            with tracer.span("a_second"):
                pass
        rendered = format_trace(tracer.to_dict()).splitlines()
        assert rendered[1].find("b_first") > 0
        assert rendered[2].find("a_second") > 0


class TestNoopEquivalence:
    def test_no_ambient_tracer_is_noop(self):
        assert trace.current_tracer() is None
        span = trace.span("anything", rows=1)
        assert span is NOOP_SPAN
        with trace.span("outer") as outer:
            assert outer is NOOP_SPAN
            outer.add(rows=5)  # silently dropped, never raises
        trace.record("hot.loop", wall_s=1.0, items=3)  # also a no-op

    def test_instrumented_function_identical_results(self):
        def compute(n):
            total = 0
            with trace.span("compute", n=n) as span:
                for i in range(n):
                    total += i * i
                span.add(total=total)
            return total

        disabled = compute(50)
        tracer = Tracer()
        with activate(tracer):
            enabled = compute(50)
        assert disabled == enabled
        assert tracer.to_dict()["counters"]["total"] == enabled

    def test_activation_restores_previous_state(self):
        tracer = Tracer()
        with activate(tracer):
            assert trace.current_tracer() is tracer
        assert trace.current_tracer() is None


class TestSnapshots:
    def test_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("hits").inc(3)
        b.counter("hits").inc(4)
        b.counter("only_b").inc()
        a.gauge("depth").set(2)
        b.gauge("depth").set(9)
        for v in (1.0, 2.0):
            a.histogram("lat", (1.0, 10.0)).observe(v)
        for v in (20.0, 30.0, 40.0):
            b.histogram("lat", (1.0, 10.0)).observe(v)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"]["hits"] == 7
        assert merged["counters"]["only_b"] == 1
        assert merged["gauges"]["depth"] == 9  # last-wins
        lat = merged["histograms"]["lat"]
        assert lat["count"] == 5
        assert lat["max"] == 40.0
        assert sum(lat["buckets"].values()) == 5

    def test_global_registry_reset(self):
        metrics.reset_global_registry()
        metrics.counter("x").inc()
        assert metrics.global_registry().snapshot()["counters"]["x"] == 1
        metrics.reset_global_registry()
        assert "x" not in metrics.global_registry().snapshot()["counters"]

    def test_a_forked_child_starts_empty_with_fresh_locks(self):
        """What the parent counted is the parent's; and a lock some other
        thread of the parent held across the fork is not inherited held."""
        import multiprocessing

        def child(pipe):
            registry = metrics.global_registry()
            inherited = registry.snapshot()["counters"]
            metrics.counter("forked.parent_count").inc()  # hangs on a held lock
            pipe.send((inherited, registry.snapshot()["counters"]))

        bumped = metrics.counter("forked.parent_count")
        bumped.inc(80)
        registry = metrics.global_registry()
        receiver, sender = multiprocessing.get_context("fork").Pipe(duplex=False)
        with registry._lock, bumped._lock:
            process = multiprocessing.get_context("fork").Process(
                target=child, args=(sender,)
            )
            process.start()
        try:
            assert receiver.poll(30), "the child hung on an inherited lock"
            inherited, after = receiver.recv()
        finally:
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
        assert inherited == {} and after == {"forked.parent_count": 1}
        assert registry is metrics.global_registry()
        assert bumped.value == 80


class TestSpanDerivedKernelStats:
    def test_explain_stats_keys_unchanged(self):
        """The interned FD kernel's --explain payload, read off the
        call's ``integrate.fd`` span, keeps its historical keys exactly."""
        from repro.integration.alite import AliteFD
        from repro.integration.intern import fd_stats_from_span
        from repro.table.table import Table

        tables = [
            Table(["City", "Pop"], [("Oslo", "1"), ("Paris", "2")], name="a"),
            Table(["City", "Area"], [("Oslo", "10"), ("Rome", "30")], name="b"),
        ]
        tracer = Tracer()
        with activate(tracer):
            AliteFD().integrate(tables)
        stats = fd_stats_from_span(tracer.root)
        assert sorted(stats) == [
            "all_null_tuples",
            "closure_seconds",
            "components",
            "domain",
            "input_tuples",
            "intern_seconds",
            "largest_component",
            "output_tuples",
            "partition_seconds",
            "subsume_seconds",
        ]
        assert stats["input_tuples"] == 4

    def test_traced_integrate_exposes_phase_children(self):
        from repro.integration.alite import AliteFD
        from repro.table.table import Table

        tables = [
            Table(["City", "Pop"], [("Oslo", "1"), ("Paris", "2")], name="a"),
            Table(["City", "Area"], [("Oslo", "10"), ("Rome", "30")], name="b"),
        ]
        tracer = Tracer()
        with activate(tracer):
            AliteFD().integrate(tables)
        doc = tracer.to_dict()

        def find(node, name):
            if node["name"] == name:
                return node
            for child in node.get("children", []):
                hit = find(child, name)
                if hit is not None:
                    return hit
            return None

        fd = find(doc, "integrate.fd")
        assert fd is not None
        child_names = {c["name"] for c in fd["children"]}
        assert {"integrate.intern", "integrate.partition", "integrate.closure"} <= child_names
        assert fd["counters"]["input_tuples"] == 4
