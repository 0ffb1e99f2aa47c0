"""The traced run: where a request's time goes, measured from outside in.

After a workload's timed window, a seeded sample of its requests is replayed
**sequentially**: once through the live server, then in-process through
each layer's *public* entry point, outermost first, on the same store and
the same inputs.  Each call is wrapped in a harness-owned span (name,
request id, parent, start, end) kept in memory and written out at the end.
A layer's self time is its span minus its child layer's span on the paired
request.  The program's own tracing feeds no named metric: one
``trace=True`` span tree is saved verbatim as ``trace_sample`` for humans.

The chain for a discover, outermost first (``>`` reads "contains")::

    client.discover > service.discover > pipeline.discover > shard.search
        > indexer.search (slowest shard) > discovery.<name>

and for an integrate::

    client.integrate > service.integrate
        > pipeline.discover > indexer.search > discovery.<name>
        > pipeline.integrate > alignment.align, integration.fd
        > integration.display

A layer a workload never enters reports 0 on that workload.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from repro import Dialite
from repro.datalake.indexer import LakeIndex
from repro.service import LakeService, encode_table
from repro.shard import ShardedLakeIndex, ShardedLakeStore, open_any_store
from repro.table import Table

import harness as hx
import workloads as wl

PINGS = 30


class Spans:
    """In-memory spans around the harness's own calls into each layer."""

    def __init__(self) -> None:
        self.records: list[tuple[str, Any, str | None, float, float]] = []

    def timed(
        self, name: str, request: Any, parent: str | None, call: Callable[[], Any],
        record: bool = True,
    ) -> tuple[Any, float]:
        """Run *call*; returns (result, milliseconds).  ``record=False`` is
        the spans-off arm of ``harness.trace_overhead_pct``."""
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        if record:
            self.records.append((name, request, parent, start, end))
        return result, (end - start) * 1e3

    def relabel(self, name: str, request: Any, as_name: str, as_request: Any) -> None:
        """Record the span (*name*, *request*) again under another label
        (the slowest shard's span becomes its request's critical child)."""
        for record in self.records:
            if record[0] == name and record[1] == request:
                self.records.append((as_name, as_request, *record[2:]))
                return
        raise KeyError((name, request))

    def ms(self, name: str) -> dict[Any, float]:
        """``{request id: milliseconds}`` of every span called *name*."""
        return {r[1]: (r[4] - r[3]) * 1e3 for r in self.records if r[0] == name}

    def p50(self, name: str) -> float:
        values = list(self.ms(name).values())
        return statistics.median(values) if values else 0.0

    def self_p50(self, name: str, children: list[str]) -> float:
        """Median over paired requests of span minus its children's spans."""
        parent = self.ms(name)
        kids = [self.ms(child) for child in children]
        values = [
            ms - sum(kid.get(request, 0.0) for kid in kids) for request, ms in parent.items()
        ]
        return statistics.median(values) if values else 0.0

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, request, parent, start, end in self.records:
                handle.write(json.dumps({
                    "name": name, "request": request, "parent": parent,
                    "start": start, "end": end,
                }) + "\n")


def fresh(table: Table) -> Table:
    """A new object with the same cells: column statistics memoize on the
    table object, and the server decodes a new one per request, so every
    layer gets a query nobody has profiled."""
    return Table(list(table.columns), list(table.rows), name=table.name)


def wire_line(document: dict) -> bytes:
    """One protocol line, encoded as ``ServiceClient`` and ``LakeServer`` do."""
    return json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode("utf-8") + b"\n"


def request_document(request: hx.Request, table: Table) -> dict:
    if request.op == "integrate":
        return {"op": "integrate", "query": encode_table(table), "k": wl.INTEGRATE_K,
                "column": wl.FRAGMENT_KEY, "align": True}
    return {"op": "discover", "query": encode_table(table), "k": wl.DISCOVER_K,
            "column": wl.KEY_COLUMN}


def directory_mb(files: dict[str, int], component: str) -> float:
    """MB of the files with *component* among their path parts."""
    return sum(size for path, size in files.items() if component in Path(path).parts) / 1e6


# ----------------------------------------------------------------------
# The replayed sample
# ----------------------------------------------------------------------
def replay_requests(workload: wl.Workload, inputs: hx.Inputs) -> list[hx.Request]:
    """The fixed seeded sample: three per replayed position, one for each
    arm of the live pass (spans on, spans off, server-side trace on)."""
    scale = inputs.scale
    if workload.primary == "integrate":
        return [hx.Request("integrate", "trace", i) for i in range(3 * scale.trace_integrates)]
    count = 3 * scale.trace_discovers
    if workload.reads == "hot":
        zipf = wl.ZipfPicker(scale.hot_queries)
        rng = random.Random(f"{inputs.seed}:trace:hot")
        return [hx.Request("discover", "hot", zipf.pick(rng)) for _ in range(count)]
    # A mixed workload replays the never-seen half of its reads: the median
    # of a hit/miss mixture sits between two modes and measures neither.
    return [hx.Request("discover", "trace", i) for i in range(count)]


# ----------------------------------------------------------------------
# Each layer's public entry point
# ----------------------------------------------------------------------
def store_layer(store_path: Path, inputs: hx.Inputs, spans: Spans) -> dict[str, float]:
    for i in range(3):
        store, _ = spans.timed("store.open", i, None, lambda: open_any_store(store_path))
    rng = random.Random(f"{inputs.seed}:store_sample")
    names = rng.sample(store.table_names, min(inputs.scale.store_sample, len(store.table_names)))
    cells = 0
    for name in names:
        spans.timed("store.table_stats", name, None, lambda: store.table_stats(name))
        table, _ = spans.timed("store.load_table", name, None, lambda: store.load_table(name))
        cells += table.num_rows * len(table.columns)
    return {
        "store.open_ms": spans.p50("store.open"),
        "store.table_stats_ms": spans.p50("store.table_stats"),
        "store.load_table_ms": spans.p50("store.load_table"),
        "store.decode_cells_per_s": cells / (sum(spans.ms("store.load_table").values()) / 1e3),
    }


def shard_indexes(store_path: Path, spans: Spans) -> tuple[list[LakeIndex], dict[str, float]]:
    """One in-process ``LakeIndex`` per shard (the thing a shard worker
    holds), or the single store's own."""
    store = open_any_store(store_path)
    shards = store.shards if isinstance(store, ShardedLakeStore) else [store]
    indexes = []
    for i, shard in enumerate(shards):
        spans.timed("candidates.load_engine", i, None, shard.load_engine)
        index, _ = spans.timed("indexer.from_store", i, None, lambda: LakeIndex.from_store(shard))
        indexes.append(index)
    return indexes, {
        "candidates.load_engine_ms": spans.p50("candidates.load_engine"),
        "indexer.from_store_ms": spans.p50("indexer.from_store"),
    }


def discover_chain(
    request_id: Any, table: Table, pipeline: Dialite, indexes: list[LakeIndex],
    spans: Spans, parent: str, k: int, column: str, counts: dict[str, list[float]],
) -> Any:
    """pipeline.discover and everything under it for one query; returns the
    discovery outcome."""
    sharded = isinstance(pipeline.index, ShardedLakeIndex)
    outcome, _ = spans.timed(
        "pipeline.discover", request_id, parent,
        lambda: pipeline.discover(fresh(table), k=k, query_column=column),
    )
    top = "shard.search" if sharded else "indexer.search"
    per_discoverer, _ = spans.timed(
        top, request_id, "pipeline.discover",
        lambda: pipeline.index.search(fresh(table), k=k, query_column=column),
    )
    reports = pipeline.index.retrieval_reports()
    counts["retrieved"].append(sum(r["retrieved"] for r in reports.values()))
    counts["scored"].append(sum(r["scored"] for r in reports.values()))
    counts["returned"].append(sum(len(results) for results in per_discoverer.values()))
    shard_ms = []
    for shard, index in enumerate(indexes):
        if sharded:
            _, ms = spans.timed(
                "indexer.search.shard", (request_id, shard), "shard.search",
                lambda: index.search(fresh(table), k=k, query_column=column),
            )
            shard_ms.append(ms)
        profiled = fresh(table)
        profiled.stats.warm()  # as LakeIndex.search does before fanning out
        for discoverer in index.discoverers:
            spans.timed(
                f"discovery.{discoverer.name}.shard", (request_id, shard), "indexer.search",
                lambda: discoverer.search(profiled, k=k, query_column=column),
            )
    slowest = 0
    if sharded:
        # The scatter waits for its slowest shard: that one is the child.
        slowest = max(range(len(shard_ms)), key=shard_ms.__getitem__)
        spans.relabel("indexer.search.shard", (request_id, slowest), "indexer.search", request_id)
        counts["skew"].append(max(shard_ms) / statistics.fmean(shard_ms))
    for discoverer in indexes[slowest].discoverers:
        name = f"discovery.{discoverer.name}"
        spans.relabel(name + ".shard", (request_id, slowest), name, request_id)
    return outcome


def layer_chain(
    position: Any, request: hx.Request, table: Table, workload: wl.Workload,
    service: LakeService, indexes: list[LakeIndex], spans: Spans,
    counts: dict[str, list[float]], fd: dict[str, list[float]],
) -> None:
    """One request through every layer under the wire, outermost first."""
    pipeline = service.pipeline
    if request.op == "discover":
        def ask() -> Any:
            return service.discover(fresh(table), k=wl.DISCOVER_K, query_column=wl.KEY_COLUMN)

        spans.timed("service.discover", position, "client.discover", ask)
        spans.timed("service.hit", position, "client.discover", ask)  # same cells: a hit
        if workload.reads != "hot":
            discover_chain(position, table, pipeline, indexes, spans, "service.discover",
                           wl.DISCOVER_K, wl.KEY_COLUMN, counts)
        return
    spans.timed(
        "service.integrate", position, "client.integrate",
        lambda: service.integrate(query=fresh(table), k=wl.INTEGRATE_K,
                                  query_column=wl.FRAGMENT_KEY),
    )
    outcome = discover_chain(position, table, pipeline, indexes, spans, "service.integrate",
                             wl.INTEGRATE_K, wl.FRAGMENT_KEY, counts)
    spans.timed("pipeline.integrate", position, "service.integrate",
                lambda: pipeline.integrate(outcome))
    tables = outcome.integration_set
    aligned, _ = spans.timed(
        "alignment.align", position, "pipeline.integrate",
        lambda: pipeline.aligner.align(tables).apply(tables),
    )
    integrator = pipeline.integrators.get(pipeline.default_integrator)
    result, _ = spans.timed(
        "integration.fd", position, "pipeline.integrate",
        lambda: integrator.integrate(aligned, name="integrated"),
    )
    spans.timed("integration.display", position, "service.integrate",
                lambda: encode_table(result.to_display_table()))
    fd["rows_in"].append(sum(t.num_rows for t in aligned))
    fd["rows_out"].append(result.num_rows)
    fd["columns"].append(sum(len(t.columns) for t in tables))


def layer_metrics(
    workload: wl.Workload, spans: Spans, counts: dict[str, list[float]],
    fd: dict[str, list[float]],
) -> dict[str, float]:
    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    out = {
        "service.hit_ms": spans.p50("service.hit"),
        "pipeline.discover_ms": spans.p50("pipeline.discover"),
        "pipeline.discover_self_ms": spans.self_p50(
            "pipeline.discover", ["shard.search" if spans.ms("shard.search") else "indexer.search"]
        ),
        "shard.search_ms": spans.p50("shard.search"),
        "shard.scatter_self_ms": spans.self_p50("shard.search", ["indexer.search"]),
        "shard.skew": mean(counts["skew"]),
        "indexer.search_ms": spans.p50("indexer.search"),
        "candidates.retrieved_per_query": mean(counts["retrieved"]),
        "candidates.scored_per_result":
            sum(counts["scored"]) / sum(counts["returned"]) if sum(counts["returned"]) else 0.0,
        "pipeline.integrate_ms": spans.p50("pipeline.integrate"),
        "alignment.align_ms": spans.p50("alignment.align"),
        "alignment.columns_per_set": mean(fd["columns"]),
        "integration.fd_ms": spans.p50("integration.fd"),
        "integration.fd_rows_in": mean(fd["rows_in"]),
        "integration.fd_rows_out": mean(fd["rows_out"]),
        "integration.fd_us_per_input_row":
            1e3 * sum(spans.ms("integration.fd").values()) / sum(fd["rows_in"]) if fd["rows_in"] else 0.0,
        "integration.display_ms": spans.p50("integration.display"),
    }
    for name in ("santos", "lsh_ensemble", "josie"):
        out[f"discovery.{name}_ms"] = spans.p50(f"discovery.{name}")
    if workload.primary == "integrate":
        out["service.miss_self_ms"] = spans.self_p50(
            "service.integrate", ["pipeline.discover", "pipeline.integrate", "integration.display"]
        )
        out["service.inprocess_ms"] = spans.p50("service.integrate")
    elif workload.reads == "hot":
        out["service.miss_self_ms"] = 0.0
        out["service.inprocess_ms"] = out["service.hit_ms"]
    else:
        out["service.miss_self_ms"] = spans.self_p50("service.discover", ["pipeline.discover"])
        out["service.inprocess_ms"] = spans.p50("service.discover")
        if workload.reads == "fresh":
            out["service.hit_ms"] = 0.0  # no reply of this workload is a hit
    return out


def ingest_chain(
    store_path: Path, service: LakeService, inputs: hx.Inputs, spans: Spans
) -> dict[str, float]:
    """The write path, outermost first: ``service.ingest`` (store write +
    hot-swap reload), then ``store.ingest`` alone, then the reload's
    dominant part alone -- ``ShardedLakeIndex.from_store(previous=...)``
    after a one-table ingest -- and the first search on the result."""
    seed, scale = inputs.seed, inputs.scale
    amplification = []
    for j in range(scale.trace_ingests):
        table = wl.new_table(seed, scale, "trace_service", j)
        before = hx.tree_bytes(store_path)
        spans.timed("service.ingest", j, "client.ingest", lambda: service.ingest([table]))
        after = hx.tree_bytes(store_path)
        written = sum(size for path, size in after.items() if before.get(path) != size)
        deleted = sum(size for path, size in before.items() if path not in after)
        amplification.append((written + deleted) / len(wire_line(encode_table(table))))
    roster = service.pipeline.discoverers.components()
    index = ShardedLakeIndex.from_store(open_any_store(store_path), roster)
    try:
        index.search(inputs.table(hx.Request("discover", "trace_refit", 0)),
                     k=wl.DISCOVER_K, query_column=wl.KEY_COLUMN)  # hydrate the workers
        for j in range(scale.trace_ingests):
            table = wl.new_table(seed, scale, "trace_store", j)
            writer = open_any_store(store_path)
            spans.timed("store.ingest_table", j, "service.ingest",
                        lambda: writer.ingest({table.name: table}, prune=False))
            previous = index
            index, _ = spans.timed(
                "shard.partial_refit", j, "service.ingest",
                lambda: ShardedLakeIndex.from_store(
                    open_any_store(store_path), roster, previous=previous
                ),
            )
            previous.close()
            query = inputs.table(hx.Request("discover", "trace_refit", j + 1))
            spans.timed("shard.first_search_after_refit", j, None,
                        lambda: index.search(query, k=wl.DISCOVER_K, query_column=wl.KEY_COLUMN))
    finally:
        index.close()
    return {
        "service.ingest_self_ms": spans.p50("service.ingest") - spans.p50("store.ingest_table"),
        "store.ingest_table_ms": spans.p50("store.ingest_table"),
        "store.write_amp": statistics.median(amplification),
        "shard.partial_refit_ms": spans.p50("shard.partial_refit"),
        "shard.first_search_after_refit_ms": spans.p50("shard.first_search_after_refit"),
    }


INGEST_ONLY = (
    "service.ingest_self_ms", "store.ingest_table_ms", "store.write_amp",
    "shard.partial_refit_ms", "shard.first_search_after_refit_ms",
)


def traced_run(
    server: hx.Server, built: hx.BuiltStore, store_files: dict[str, int],
    workload: wl.Workload, inputs: hx.Inputs, spans_path: Path,
) -> tuple[dict[str, float], Any]:
    """Returns (per-layer metrics measured here, trace_sample).

    The live server stays up but idle while the layers run in this
    process, so that each request goes through the server and then
    straight through the layers: the machine's speed drifts over seconds,
    and a pair taken a moment apart sees the same machine.  Every third
    request is such a pair (spans on); the other two arms are the same
    call with spans off and with the server's own ``trace=True``.
    """
    spans = Spans()
    out: dict[str, Any] = store_layer(built.path, inputs, spans)
    indexes, opened = shard_indexes(built.path, spans)
    out.update(opened)
    warm = hx.warm_requests(workload, inputs.scale)
    column = wl.FRAGMENT_KEY if workload.primary == "integrate" else wl.KEY_COLUMN

    def open_fit() -> Dialite:
        # Up to the first answer: a sharded index hydrates its workers lazily.
        pipeline = Dialite.open(built.path).fit()
        pipeline.discover(inputs.table(warm[0]), k=wl.DISCOVER_K, query_column=column)
        return pipeline

    pipeline, out["pipeline.open_fit_ms"] = spans.timed("pipeline.open_fit", 0, None, open_fit)
    service = LakeService(pipeline=pipeline)  # constructor defaults == `repro serve` defaults
    try:
        pipeline.lake.tables()  # steady state: the live server has paged the lake in
        counts: dict[str, list[float]] = {k: [] for k in ("retrieved", "scored", "returned", "skew")}
        fd: dict[str, list[float]] = {k: [] for k in ("rows_in", "rows_out", "columns")}
        for i, request in enumerate(warm[1:5]):  # unrecorded: lazy set-up is not steady state
            layer_chain(f"warm{i}", request, inputs.table(request), workload, service, indexes,
                        Spans(), {k: [] for k in counts}, {k: [] for k in fd})

        client = server.client()
        arms: dict[str, list[float]] = {"on": [], "off": [], "traced": []}
        request_bytes, response_bytes = [], []
        trace_sample = None
        for position, request in enumerate(replay_requests(workload, inputs)):
            table = inputs.table(request)
            arm = ("on", "off", "traced")[position % 3]
            if arm == "on":
                line, _ = spans.timed(
                    "protocol.request_encode", position, "client." + request.op,
                    lambda: wire_line(request_document(request, table)),
                )
                request_bytes.append(len(line))
            response, ms = spans.timed(
                "client." + request.op, position, None,
                lambda: hx.send(client, request, table, trace=arm == "traced"),
                record=arm == "on",
            )
            arms[arm].append(ms)
            if arm == "on":
                line = wire_line(response)
                response_bytes.append(len(line))
                spans.timed("protocol.response_decode", position, "client." + request.op,
                            lambda: json.loads(line))
                layer_chain(position, request, table, workload, service, indexes, spans, counts, fd)
            elif arm == "traced" and trace_sample is None:
                trace_sample = response.get("trace")
        pings = [spans.timed("protocol.ping", i, None, client.ping)[1] for i in range(PINGS)]
        out.update(layer_metrics(workload, spans, counts, fd))
        if workload.writer:
            out.update(ingest_chain(built.path, service, inputs, spans))
    finally:
        service.close()

    seq = statistics.median(arms["on"] + arms["off"])
    off = statistics.median(arms["off"])
    inprocess = out.pop("service.inprocess_ms")
    out.update({
        "client.seq_p50_ms": seq,
        "protocol.request_encode_ms": spans.p50("protocol.request_encode"),
        "protocol.request_bytes": statistics.median(request_bytes),
        "protocol.response_decode_ms": spans.p50("protocol.response_decode"),
        "protocol.response_bytes": statistics.median(response_bytes),
        "protocol.ping_rtt_ms": statistics.median(pings),
        "protocol.wire_self_ms": seq - inprocess,
        "harness.trace_overhead_pct": 100.0 * (statistics.median(arms["on"]) - off) / off,
        "obs.traced_request_overhead_pct": 100.0 * (statistics.median(arms["traced"]) - seq) / seq,
        "store.build_ingest_s": built.build_ingest_s,
        "store.build_index_s": built.build_index_s,
        "store.segment_mb": directory_mb(store_files, "segments"),
        "store.stats_mb": directory_mb(store_files, "stats"),
        "store.index_mb": directory_mb(store_files, "indexes")
        + store_files.get("global_fit.pkl", 0) / 1e6,
        "candidates.posting_mb": directory_mb(store_files, "postings"),
    })
    for name in INGEST_ONLY:
        out.setdefault(name, 0.0)
    # The paired medians: what the client waited, against what the layers
    # under the wire took for the same request a moment later plus the
    # wire's own measured pieces.  What is left has no name yet.
    paired_client = spans.p50("client." + workload.primary)
    attributed = (
        out["protocol.request_encode_ms"] + out["protocol.response_decode_ms"]
        + out["protocol.ping_rtt_ms"] + inprocess
    )
    out["layers.unattributed_pct"] = 100.0 * (paired_client - attributed) / paired_client
    spans.dump(spans_path)
    return out, trace_sample
