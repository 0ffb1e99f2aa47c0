"""Unit tests for the telemetry plane (repro.obs.export/recorder/slo).

The contracts pinned here:

* **rotate_file keep-N** -- the shared rotation primitive shifts
  ``path -> path.1 -> ... -> path.keep`` dropping the oldest, never
  rotates below the size threshold, and is disabled outright when
  ``max_bytes`` is None or non-positive;
* **Prometheus round trip** -- ``prometheus_text`` output parses back
  value-for-value (counters, gauges, histogram sum/count and cumulative
  buckets with a ``+Inf`` terminal equal to the count), with metric
  names sanitised to the exposition charset;
* **exporter envelope** -- a ``TelemetryExporter`` flush writes one
  ``kind=metrics`` document per registry plus one ``kind=trace`` per
  queued tree, identity attached; the bounded trace queue drops oldest
  and reports the drop count once; ``close()`` performs a final flush;
* **flight recorder** -- the ring is bounded, ``trip_reason`` applies
  the deadline > error > degraded > latency precedence, postmortems are
  only written when a path is configured (``wants_trace``), and each
  dump carries the tripping request's tree plus the ring *before* it;
* **SLO burn rates** -- with an injected clock, the monitor fires only
  when the burn is elevated in every window with at least MIN_EVENTS
  each, escalates warn -> degraded at PAGE_BURN, and recovers once the
  bad bucket ages out of the windows.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    TelemetryExporter,
    metrics_document,
    parse_prometheus_text,
    prometheus_text,
    rotate_file,
    snapshot_identity,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.recorder import FlightRecorder, trip_reason
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    MIN_EVENTS,
    Objective,
    SLOMonitor,
)


class TestRotateFile:
    def test_keep_n_shift_drops_oldest(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        for generation in range(5):
            sink.write_text(f"gen{generation}" + "x" * 64, encoding="utf-8")
            assert rotate_file(sink, max_bytes=16, keep=3)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["sink.jsonl.1", "sink.jsonl.2", "sink.jsonl.3"]
        # Newest backup is the most recent generation; the oldest fell off.
        assert (tmp_path / "sink.jsonl.1").read_text(encoding="utf-8").startswith("gen4")
        assert (tmp_path / "sink.jsonl.3").read_text(encoding="utf-8").startswith("gen2")

    def test_below_threshold_is_noop(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        sink.write_text("tiny", encoding="utf-8")
        assert not rotate_file(sink, max_bytes=1024, keep=3)
        assert sink.read_text(encoding="utf-8") == "tiny"

    def test_disabled_and_missing(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        sink.write_text("x" * 100, encoding="utf-8")
        assert not rotate_file(sink, max_bytes=None)
        assert not rotate_file(sink, max_bytes=0)
        assert not rotate_file(tmp_path / "absent.jsonl", max_bytes=1)


class TestPrometheusRoundTrip:
    def test_values_survive(self):
        registry = MetricsRegistry()
        registry.counter("service.requests").inc(12)
        registry.gauge("queue.depth").set(3.5)
        hist = registry.histogram("lat", (1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        snapshot = registry.snapshot()
        parsed = parse_prometheus_text(prometheus_text(snapshot))
        assert parsed["repro_service_requests"] == 12
        assert parsed["repro_queue_depth"] == 3.5
        assert parsed["repro_lat_count"] == 4
        assert parsed["repro_lat_sum"] == pytest.approx(555.5)
        buckets = parsed["repro_lat_bucket"]
        assert buckets['le="1"'] == 1
        assert buckets['le="10"'] == 2
        assert buckets['le="100"'] == 3
        assert buckets['le="+Inf"'] == 4  # terminal bucket == count

    def test_default_latency_buckets_survive(self):
        """A latency histogram on the default bounds, filled in ms: every
        cumulative bucket parses back, ``+Inf`` included."""
        registry = MetricsRegistry()
        latency = registry.histogram("service.latency.discover")
        for ms in (0.4, 3.0, 12.0, 48.0, 950.0):
            latency.observe_ms(ms)
        snapshot = registry.snapshot()
        hist = snapshot["histograms"]["service.latency.discover"]
        parsed = parse_prometheus_text(prometheus_text(snapshot))
        assert parsed["repro_service_latency_discover_count"] == 5
        assert parsed["repro_service_latency_discover_sum"] == pytest.approx(hist["sum"])
        buckets = parsed["repro_service_latency_discover_bucket"]
        assert len(buckets) == len(DEFAULT_LATENCY_BUCKETS_MS) + 1
        cumulative = 0
        for bound, count in hist["buckets"].items():
            cumulative += count
            le = "+Inf" if bound == "+inf" else f"{float(bound):g}"
            assert buckets[f'le="{le}"'] == cumulative, le
        assert buckets['le="+Inf"'] == 5

    def test_names_sanitised_to_exposition_charset(self):
        registry = MetricsRegistry()
        registry.counter("shard.scatter-failures").inc()
        text = prometheus_text(registry.snapshot())
        assert "repro_shard_scatter_failures 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text({"counters": {}, "gauges": {}, "histograms": {}}) == ""

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not exposition format")


class TestEnvelopes:
    def test_identity_and_document_shape(self):
        identity = snapshot_identity("shard-worker", shard="lake/shard_2")
        assert identity["role"] == "shard-worker"
        assert identity["shard"] == "lake/shard_2"
        assert isinstance(identity["pid"], int)
        doc = metrics_document({"counters": {"x": 1}}, identity, ts=123.0)
        assert doc == {
            "kind": "metrics",
            "ts": 123.0,
            "identity": identity,
            "metrics": {"counters": {"x": 1}},
        }


class TestTelemetryExporter:
    def test_flush_writes_metrics_and_traces(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits").inc(9)
        sink = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(
            sink,
            interval_s=3600.0,
            identity=snapshot_identity("test"),
            registries=[registry.snapshot],
        )
        exporter.offer_trace(
            {"name": "client.discover", "wall_ms": 2.0, "trace_id": "t1"},
            summary={"op": "discover"},
        )
        assert exporter.flush() == 2
        docs = [
            json.loads(line)
            for line in sink.read_text(encoding="utf-8").splitlines()
        ]
        kinds = [doc["kind"] for doc in docs]
        assert kinds == ["metrics", "trace"]
        assert docs[0]["metrics"]["counters"]["hits"] == 9
        assert docs[0]["identity"]["role"] == "test"
        assert docs[1]["trace"]["trace_id"] == "t1"
        assert docs[1]["summary"] == {"op": "discover"}
        exporter.close()

    def test_bounded_queue_reports_drops_once(self, tmp_path):
        sink = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(
            sink, interval_s=3600.0, registries=[], max_queued_traces=2
        )
        for i in range(5):
            exporter.offer_trace({"name": f"t{i}", "wall_ms": 1.0})
        exporter.flush()
        docs = [
            json.loads(line)
            for line in sink.read_text(encoding="utf-8").splitlines()
        ]
        traces = [doc for doc in docs if doc["kind"] == "trace"]
        dropped = [doc for doc in docs if doc["kind"] == "dropped_traces"]
        assert [t["trace"]["name"] for t in traces] == ["t3", "t4"]  # newest kept
        assert len(dropped) == 1 and dropped[0]["count"] == 3
        # The drop counter resets: a clean follow-up flush has no report.
        exporter.offer_trace({"name": "t5", "wall_ms": 1.0})
        exporter.flush()
        docs = [
            json.loads(line)
            for line in sink.read_text(encoding="utf-8").splitlines()
        ]
        assert sum(1 for doc in docs if doc["kind"] == "dropped_traces") == 1
        exporter.close()

    def test_close_performs_final_flush(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("final").inc()
        sink = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(
            sink, interval_s=3600.0, registries=[registry.snapshot]
        ).start()
        exporter.close()
        docs = [
            json.loads(line)
            for line in sink.read_text(encoding="utf-8").splitlines()
        ]
        assert any(doc["metrics"]["counters"].get("final") == 1 for doc in docs)

    def test_empty_flush_writes_nothing(self, tmp_path):
        sink = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(sink, interval_s=3600.0, registries=[])
        assert exporter.flush() == 0
        assert not sink.exists()


class TestTripReason:
    def test_precedence(self):
        assert trip_reason({"error": "DeadlineExceeded"}, None) == "deadline"
        assert trip_reason(
            {"error": "ValueError", "degraded_shards": [1]}, None
        ) == "error"
        assert trip_reason({"degraded_shards": [2], "latency_ms": 99.0}, 1.0) == "degraded"
        assert trip_reason({"latency_ms": 250.0}, 200.0) == "latency"

    def test_healthy_request_is_none(self):
        assert trip_reason({"latency_ms": 5.0}, None) is None
        assert trip_reason({"latency_ms": 5.0}, 200.0) is None
        assert trip_reason({"degraded_shards": []}, None) is None


class TestFlightRecorder:
    def test_ring_is_bounded_oldest_first(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.observe({"op": "discover", "seq": i})
        assert [entry["seq"] for entry in recorder.recent()] == [2, 3, 4]
        assert [entry["seq"] for entry in recorder.recent(2)] == [3, 4]

    def test_no_postmortem_without_path(self):
        recorder = FlightRecorder(capacity=4)
        assert not recorder.wants_trace
        assert recorder.observe({"op": "discover", "error": "ValueError"}) is None
        assert recorder.postmortem_count == 0

    def test_postmortem_document(self, tmp_path):
        sink = tmp_path / "postmortem.jsonl"
        recorder = FlightRecorder(capacity=8, postmortem_path=sink)
        assert recorder.wants_trace
        recorder.observe({"op": "discover", "seq": 0})
        recorder.observe({"op": "discover", "seq": 1})
        reason = recorder.observe(
            {"op": "discover", "seq": 2, "degraded_shards": [1], "trace_id": "abc"},
            tree={"name": "service.discover", "wall_ms": 3.0, "trace_id": "abc"},
        )
        assert reason == "degraded"
        assert recorder.postmortem_count == 1
        doc = json.loads(sink.read_text(encoding="utf-8").splitlines()[0])
        assert doc["kind"] == "postmortem"
        assert doc["reason"] == "degraded"
        assert doc["trace_id"] == "abc"
        assert doc["trace"]["name"] == "service.discover"
        # The ring is the context *before* the tripping request.
        assert [entry["seq"] for entry in doc["ring"]] == [0, 1]

    def test_latency_trigger(self, tmp_path):
        sink = tmp_path / "postmortem.jsonl"
        recorder = FlightRecorder(
            capacity=8, postmortem_path=sink, latency_threshold_ms=100.0
        )
        assert recorder.observe({"op": "discover", "latency_ms": 50.0}) is None
        assert recorder.observe({"op": "discover", "latency_ms": 150.0}) == "latency"
        assert recorder.postmortem_count == 1


def make_clock(start: float = 1000.0):
    state = {"now": start}

    def clock():
        return state["now"]

    def advance(seconds: float):
        state["now"] += seconds

    return clock, advance


class TestSLOMonitor:
    def test_quiet_service_is_ok(self):
        clock, _ = make_clock()
        monitor = SLOMonitor(clock=clock)
        for _ in range(20):
            monitor.observe(ok=True, latency_ms=5.0, degraded=False)
        evaluation = monitor.evaluate()
        assert evaluation["status"] == "ok"
        assert evaluation["firing"] == []
        assert set(evaluation["objectives"]) == {o.name for o in DEFAULT_OBJECTIVES}

    def test_min_events_gates_firing(self):
        clock, _ = make_clock()
        monitor = SLOMonitor(clock=clock)
        for _ in range(MIN_EVENTS - 1):
            monitor.observe(ok=False, latency_ms=5.0, degraded=True)
        assert monitor.evaluate()["firing"] == []
        monitor.observe(ok=False, latency_ms=5.0, degraded=True)
        firing = {f["objective"] for f in monitor.evaluate()["firing"]}
        assert {"availability", "degraded_rate"} <= firing

    def test_warn_vs_page_severity(self):
        clock, _ = make_clock()
        # target 0.9 -> budget 0.1: 50% bad burns 5x (warn), 100% burns 10x (page).
        objective = Objective(name="avail", kind="availability", target=0.9)
        monitor = SLOMonitor(objectives=(objective,), clock=clock)
        for i in range(10):
            monitor.observe(ok=i % 2 == 0, latency_ms=1.0, degraded=False)
        [entry] = monitor.evaluate()["firing"]
        assert entry["severity"] == "warn"
        assert monitor.evaluate()["status"] == "warn"

        paging = SLOMonitor(objectives=(objective,), clock=clock)
        for _ in range(10):
            paging.observe(ok=False, latency_ms=1.0, degraded=False)
        [entry] = paging.evaluate()["firing"]
        assert entry["severity"] == "degraded"
        assert paging.evaluate()["status"] == "degraded"

    def test_burn_rate_math(self):
        clock, _ = make_clock()
        monitor = SLOMonitor(clock=clock)
        for i in range(10):
            monitor.observe(ok=True, latency_ms=1.0, degraded=i < 5)
        burns = monitor.evaluate()["objectives"]["degraded_rate"]["burn"]
        # 50% degraded against a 0.1% budget -> burn 500 in both windows.
        assert burns["60s"] == pytest.approx(500.0)
        assert burns["600s"] == pytest.approx(500.0)

    def test_requires_every_window_elevated(self):
        clock, advance = make_clock()
        monitor = SLOMonitor(clock=clock)
        for _ in range(10):
            monitor.observe(ok=True, latency_ms=1.0, degraded=True)
        assert monitor.evaluate()["status"] == "degraded"
        # Two minutes later the short window holds only fresh good
        # traffic: the long window still burns, but firing needs both.
        advance(120.0)
        for _ in range(10):
            monitor.observe(ok=True, latency_ms=1.0, degraded=False)
        evaluation = monitor.evaluate()
        assert evaluation["firing"] == []
        assert evaluation["objectives"]["degraded_rate"]["burn"]["600s"] > 0

    def test_recovers_after_windows_age_out(self):
        clock, advance = make_clock()
        monitor = SLOMonitor(clock=clock)
        for _ in range(10):
            monitor.observe(ok=False, latency_ms=9000.0, degraded=True)
        assert monitor.evaluate()["status"] == "degraded"
        advance(601.0)
        evaluation = monitor.evaluate()
        assert evaluation["status"] == "ok"
        assert evaluation["objectives"]["availability"]["burn"] == {
            "60s": 0.0,
            "600s": 0.0,
        }

    def test_latency_objective_uses_threshold(self):
        clock, _ = make_clock()
        monitor = SLOMonitor(clock=clock)
        for _ in range(10):
            monitor.observe(ok=True, latency_ms=6000.0, degraded=False)
        firing = {f["objective"] for f in monitor.evaluate()["firing"]}
        assert firing == {"latency_p99"}
        doc = monitor.evaluate()["objectives"]["latency_p99"]
        assert doc["latency_threshold_ms"] == 5000.0
