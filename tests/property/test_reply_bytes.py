"""Property: a reply line is a pure function of (request, lake version).

The service encodes a payload once and caches, fans out and writes those
bytes.  Over generated lakes and request mixes -- discover / align /
integrate, the same discover sent by several callers inside one batch
window, an ingest in the middle of the run -- every reply line must

* equal ``json.dumps`` of the envelope ``{"ok", "op", "lake_version",
  "cached", "payload"}`` the server used to build from the payload's
  object graph (so ``protocol.response_bytes`` cannot move), with the
  payload taken from a *fresh* service opened at the stamped version;
* as a hit, equal the line of the miss that filled the entry apart from
  the ``cached`` flag;
* decode, through ``ServiceResponse.payload``, to the fresh service's
  payload.
"""

from __future__ import annotations

import json
import tempfile
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import LakeServer, LakeService, decode_table, encode_table
from repro.store import LakeStore
from repro.table import MISSING, Table

CITIES = ["Berlin", "Zürich", "São Paulo", "Oslo", "Toronto", "Boston", 'Quo"te']
COUNTRIES = ["Germany", "Switzerland", "Brazil", "Norway", "Canada", "USA"]

cell = st.one_of(st.sampled_from(CITIES), st.just(MISSING))


@st.composite
def tables(draw, name: str) -> Table:
    rows = draw(
        st.lists(
            st.tuples(cell, st.sampled_from(COUNTRIES), st.integers(0, 9)),
            min_size=2,
            max_size=5,
        )
    )
    return Table(["City", "Country", "Rate"], rows, name=name)


@st.composite
def scenarios(draw):
    lake = [draw(tables(f"lake{i}")) for i in range(draw(st.integers(2, 3)))]
    pool = [draw(tables(f"q{i}")) for i in range(3)]
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["discover", "align", "integrate", "integrate_query"]),
                st.integers(0, 2),
                st.integers(1, 3),
            ),
            min_size=2,
            max_size=5,
        )
    )
    ingest_at = draw(st.integers(0, len(steps)))
    return lake, pool, steps, ingest_at, draw(tables("newcomer"))


def request_document(kind: str, pool: list[Table], pick: int, k: int) -> dict:
    query = encode_table(pool[pick])
    if kind == "discover":
        return {"op": "discover", "query": query, "k": k, "column": "City"}
    if kind == "integrate_query":
        return {"op": "integrate", "query": query, "k": k, "column": "City"}
    pair = [query, encode_table(pool[(pick + 1) % len(pool)])]
    return {"op": kind, "tables": pair}


def old_envelope_line(op: str, version: int, cached: bool, payload: dict) -> bytes:
    document = {
        "ok": True, "op": op, "lake_version": version, "cached": cached,
        "payload": payload,
    }
    return json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"


def in_process(service: LakeService, document: dict):
    """The same request through the typed in-process surface."""
    if document["op"] == "discover":
        return service.discover(
            decode_table(document["query"]), k=document["k"], query_column="City"
        )
    if document["op"] == "align":
        return service.align([decode_table(d) for d in document["tables"]])
    if "query" in document:
        return service.integrate(
            query=decode_table(document["query"]), k=document["k"], query_column="City"
        )
    return service.integrate(tables=[decode_table(d) for d in document["tables"]])


def check_document(server: LakeServer, store_path: Path, document: dict) -> None:
    # Several callers at once: with a batch window open, identical
    # discovers dedupe to one execution and fan out the same bytes.
    lines: list[bytes] = []

    def call() -> None:
        lines.append(server.dispatch(document))

    callers = [threading.Thread(target=call) for _ in range(3)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=30)
    assert len(lines) == 3
    hit = server.dispatch(document)
    version = server.service.version

    with LakeService(store=store_path, workers=1) as fresh:
        assert fresh.version == version
        payload = in_process(fresh, document).payload
    assert hit == old_envelope_line(document["op"], version, True, payload)
    miss = old_envelope_line(document["op"], version, False, payload)
    assert set(lines) <= {hit, miss}
    assert hit == miss.replace(b'"cached":false', b'"cached":true', 1)
    served = in_process(server.service, document)
    assert served.cached and served.payload == payload


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_reply_lines_are_a_function_of_request_and_version(scenario):
    lake, pool, steps, ingest_at, newcomer = scenario
    with tempfile.TemporaryDirectory() as scratch:
        store_path = Path(scratch) / "lake.store"
        LakeStore.create(store_path).ingest({t.name: t for t in lake})
        service = LakeService(
            store=store_path, workers=3, reload_check_interval=0.0
        )
        server = LakeServer(service)  # dispatch only: the socket adds nothing here
        try:
            for position, (kind, pick, k) in enumerate(steps):
                if position == ingest_at:
                    ack = json.loads(
                        server.dispatch({"op": "ingest", "tables": [encode_table(newcomer)]})
                    )
                    assert ack["lake_version"] == service.version == 2
                check_document(server, store_path, request_document(kind, pool, pick, k))
        finally:
            server.close()
