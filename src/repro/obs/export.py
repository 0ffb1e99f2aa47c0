"""Telemetry export: rotating JSONL sinks and Prometheus text rendering.

:mod:`repro.obs.trace` and :mod:`repro.obs.metrics` keep everything in
memory; this module is the durable edge.  Three pieces:

* :func:`rotate_file` -- size-bounded keep-N rotation shared by every
  JSONL sink in the service tier (trace sink, postmortems, exporter).
* :func:`prometheus_text` / :func:`parse_prometheus_text` -- render a
  :meth:`MetricsRegistry.snapshot` document in the Prometheus text
  exposition format (and parse it back, for the round-trip tests).
* :class:`TelemetryExporter` -- a background daemon thread that flushes
  periodic metrics snapshots plus completed span trees to a rotating
  JSONL file.  The hot path only ever does an O(1) deque append
  (:meth:`offer_trace`); all I/O happens on the flusher thread.

Snapshots are wrapped in :func:`metrics_document` envelopes carrying
process/shard *identity*, so documents emitted by sharded workers can be
folded with the documented :func:`repro.obs.metrics.merge_snapshots`
semantics without losing track of who reported what.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
from collections import deque
from pathlib import Path

from . import metrics

__all__ = [
    "rotate_file",
    "snapshot_identity",
    "metrics_document",
    "prometheus_text",
    "parse_prometheus_text",
    "TelemetryExporter",
]


def rotate_file(path: Path, max_bytes: int | None, keep: int = 3) -> bool:
    """Shift *path* into numbered backups when it exceeds *max_bytes*.

    ``path -> path.1 -> path.2 -> ... -> path.keep`` with the oldest
    dropped.  Returns True when a rotation happened.  The caller holds
    whatever lock serialises writers to *path*; this function only moves
    files.  *max_bytes* None (or <= 0) disables rotation.
    """
    if max_bytes is None or max_bytes <= 0:
        return False
    try:
        size = path.stat().st_size
    except OSError:
        return False
    if size < max_bytes:
        return False
    keep = max(1, int(keep))
    oldest = path.with_name(f"{path.name}.{keep}")
    if oldest.exists():
        oldest.unlink()
    for index in range(keep - 1, 0, -1):
        older = path.with_name(f"{path.name}.{index}")
        if older.exists():
            older.rename(path.with_name(f"{path.name}.{index + 1}"))
    path.rename(path.with_name(f"{path.name}.1"))
    return True


def snapshot_identity(role: str, shard: "str | None" = None) -> dict:
    """Who produced a snapshot: pid + host + role (+ shard path)."""
    identity = {"pid": os.getpid(), "host": socket.gethostname(), "role": role}
    if shard is not None:
        identity["shard"] = str(shard)
    return identity


def metrics_document(snapshot: dict, identity: dict, ts: "float | None" = None) -> dict:
    """The JSONL envelope for one exported metrics snapshot."""
    return {
        "kind": "metrics",
        "ts": time.time() if ts is None else ts,
        "identity": dict(identity),
        "metrics": snapshot,
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(prefix: str, name: str) -> str:
    return _NAME_SANITIZE.sub("_", prefix + name)


def _fmt_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def prometheus_text(snapshot: dict, prefix: str = "repro_") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document as Prometheus
    text exposition format (version 0.0.4).

    Counters and gauges become single samples; histograms become
    cumulative ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``,
    which is exactly what a Prometheus scraper (or promtool) expects.
    Extra snapshot keys (e.g. ``identity`` on worker documents) are
    ignored, mirroring :func:`repro.obs.metrics.merge_snapshots`.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_float(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        doc = snapshot["histograms"][name]
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in doc.get("buckets", {}).items():
            cumulative += count
            le = "+Inf" if bound == "+inf" else _fmt_float(float(bound))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {_fmt_float(doc.get('sum', 0.0))}")
        lines.append(f"{metric}_count {doc.get('count', 0)}")
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$'
)


def parse_prometheus_text(text: str) -> dict:
    """Parse :func:`prometheus_text` output back into
    ``{name: value}`` for plain samples and
    ``{name: {label_string: value}}`` for labelled ones.

    This is the verifier half of the Prometheus round-trip tests --
    deliberately strict about the subset this module emits rather than a
    general exposition-format parser.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        name, labels = match.group("name"), match.group("labels")
        if labels is None:
            samples[name] = value
        else:
            samples.setdefault(name, {})[labels] = value
    return samples


# ----------------------------------------------------------------------
# Background exporter
# ----------------------------------------------------------------------
class TelemetryExporter:
    """Flush metrics snapshots and completed span trees to rotating JSONL.

    The request path calls :meth:`offer_trace` -- a lock-free-ish bounded
    ``deque.append`` -- and nothing else; a daemon thread wakes every
    *interval_s* seconds, snapshots *registries* (callables returning
    snapshot documents), drains the trace queue, and appends one JSON
    document per line to *path*, rotating per :func:`rotate_file`.

    ``close()`` stops the thread and performs a final flush so short
    lived processes (tests, benchmarks) never lose the last interval.
    """

    def __init__(
        self,
        path: "Path | str",
        *,
        interval_s: float = 30.0,
        identity: "dict | None" = None,
        registries: "tuple | list | None" = None,
        max_bytes: "int | None" = 64 * 1024 * 1024,
        keep: int = 3,
        max_queued_traces: int = 512,
    ) -> None:
        self.path = Path(path)
        self.interval_s = max(0.05, float(interval_s))
        self.identity = dict(identity) if identity else snapshot_identity("service")
        self._registries = list(
            registries
            if registries is not None
            else [lambda: metrics.global_registry().snapshot()]
        )
        self._max_bytes = max_bytes
        self._keep = keep
        self._traces: deque = deque(maxlen=max_queued_traces)
        self._dropped_traces = 0
        self._io_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    # -- hot-path entry ----------------------------------------------------
    def offer_trace(self, tree: dict, summary: "dict | None" = None) -> None:
        """Queue one finished span tree for the next flush (O(1); oldest
        queued tree is dropped when the bounded queue is full)."""
        if not tree:
            return
        if len(self._traces) == self._traces.maxlen:
            self._dropped_traces += 1
        self._traces.append({"tree": tree, "summary": summary})

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "TelemetryExporter":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="telemetry-exporter", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        self.flush()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.flush()
            except Exception:  # noqa: BLE001 - exporter must never kill the host
                pass

    # -- flushing ------------------------------------------------------------
    def flush(self) -> int:
        """Write one metrics document per registry plus every queued
        trace; returns the number of lines written."""
        now = time.time()
        documents: list[dict] = []
        for registry in self._registries:
            try:
                snapshot = registry()
            except Exception:  # noqa: BLE001 - a dead registry must not stop others
                continue
            if snapshot:
                documents.append(metrics_document(snapshot, self.identity, ts=now))
        while self._traces:
            try:
                item = self._traces.popleft()
            except IndexError:  # pragma: no cover - racing offer_trace
                break
            documents.append(
                {
                    "kind": "trace",
                    "ts": now,
                    "identity": self.identity,
                    "summary": item.get("summary"),
                    "trace": item["tree"],
                }
            )
        if self._dropped_traces:
            documents.append(
                {
                    "kind": "dropped_traces",
                    "ts": now,
                    "identity": self.identity,
                    "count": self._dropped_traces,
                }
            )
            self._dropped_traces = 0
        if not documents:
            return 0
        payload = "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in documents)
        with self._io_lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            rotate_file(self.path, self._max_bytes, self._keep)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(payload)
        return len(documents)
