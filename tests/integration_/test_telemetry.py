"""Integration: end-to-end telemetry over a live 4-shard TCP server.

The ISSUE 10 acceptance pin: one traced ``discover --service`` request
against a 4-shard lake produces a SINGLE span tree -- client spans
(connect/serialize/wait), server admission/queue/execute spans, and all
four shard workers' trees (crossing the process-pool boundary), every
shard stamped with the trace id the client minted.

Also covered here, because they need the same live sharded server:

* the flight recorder captures an injected degraded request with its
  full tree and the matching trace id;
* ``health`` reports per-shard ``last_respawn_age_s`` after supervision
  replaced a killed worker, plus the SLO view;
* the ``repro trace`` renderer (format_trace) renders the merged tree
  with the trace id on the root line and the scatter fan-out ordered
  slowest-first.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import inject
from repro.obs.trace import format_trace
from repro.service import LakeServer, LakeService, ServiceClient
from repro.shard import ShardedLakeStore
from repro.table.table import Table

NUM_SHARDS = 4


@pytest.fixture(autouse=True)
def _clean_faults():
    inject.reset()
    yield
    inject.reset()


def build_sharded_store(root):
    tables = {}
    for i in range(12):
        rows = [(f"city{i}_{j}", f"state{j % 3}", i * 10 + j) for j in range(6)]
        tables[f"t{i:02d}"] = Table(["City", "State", "Pop"], rows, name=f"t{i:02d}")
    store = ShardedLakeStore.create(root / "lake", num_shards=NUM_SHARDS)
    store.ingest(tables)
    return root / "lake"


def query_table(tag: str) -> Table:
    """Unique *content* per tag: the result cache is content-keyed, so a
    tag-only name change would serve every later query from cache and
    never scatter."""
    rows = [(f"city{i}_{j}", f"state{j % 3}") for i, j in ((1, 0), (2, 1), (3, 2))]
    rows.append((f"q_{tag}", "state0"))
    return Table(["City", "State"], rows, name=f"q_{tag}")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    base = tmp_path_factory.mktemp("telemetry")
    store_path = build_sharded_store(base)
    postmortem_path = base / "postmortem.jsonl"
    service = LakeService(
        store=store_path,
        workers=2,
        reload_check_interval=0.0,
        postmortem_path=postmortem_path,
    )
    server = LakeServer(service, port=0)
    server.start()
    yield service, server, postmortem_path
    server.close()


def find_all(node: dict, name: str) -> list[dict]:
    hits = [node] if node.get("name") == name else []
    for child in node.get("children", []):
        hits.extend(find_all(child, name))
    return hits


def find_one(node: dict, name: str) -> dict:
    hits = find_all(node, name)
    assert len(hits) == 1, f"expected exactly one {name!r} span, got {len(hits)}"
    return hits[0]


class TestDistributedTrace:
    def test_traced_discover_is_one_tree_across_processes(self, served):
        """The acceptance criterion: client + server + all 4 shard
        workers in one tree under one trace id."""
        _, server, _ = served
        client = ServiceClient(server.address)
        response = client.discover(query_table("tree"), k=3, trace=True)
        tree = response["trace"]
        # The tree is all that tracing adds to the reply document.
        assert set(response) == {"ok", "op", "lake_version", "cached", "payload", "trace"}

        # Root: the wire client minted the id and owns the root span.
        assert tree["name"] == "client.discover"
        trace_id = tree["trace_id"]
        assert len(trace_id) == 16
        int(trace_id, 16)

        # Client-side phases under the root.
        child_names = [child["name"] for child in tree["children"]]
        for expected in ("client.connect", "client.serialize", "client.wait"):
            assert expected in child_names, (expected, child_names)

        # The server's tree grafted under the same root: admission,
        # queue and execution spans in their documented nesting.
        service_root = find_one(tree, "service.discover")
        for stage in ("service.cache", "service.queue_wait", "service.execute"):
            assert find_all(service_root, stage), stage

        # The scatter fans out to exactly one span per shard worker,
        # each carrying the root's trace id across the process boundary.
        scatter = find_one(service_root, "discover.scatter")
        shard_spans = [
            child for child in scatter["children"]
            if child["name"].startswith("shard[")
        ]
        assert sorted(span["name"] for span in shard_spans) == [
            f"shard[{i}]" for i in range(NUM_SHARDS)
        ]
        for span in shard_spans:
            assert span["counters"].get("trace_id") == trace_id, span["name"]
            assert span["wall_ms"] >= 0.0

    def test_renderer_on_the_live_scatter_tree(self, served):
        """Satellite (d): `repro trace`'s format_trace on a real sharded
        tree -- root line advertises the trace id, scatter children are
        ordered by self time descending."""
        _, server, _ = served
        client = ServiceClient(server.address)
        response = client.discover(query_table("render"), k=3, trace=True)
        tree = response["trace"]
        rendered = format_trace(tree)
        lines = rendered.splitlines()
        assert lines[0].startswith("client.discover")
        assert f"(trace {tree['trace_id']})" in lines[0]
        shard_lines = [line for line in lines if "shard[" in line]
        assert len(shard_lines) == NUM_SHARDS
        rendered_self_ms = []
        scatter = find_one(tree, "discover.scatter")
        by_name = {c["name"]: c for c in scatter["children"]}
        for line in shard_lines:
            name = "shard[" + line.split("shard[")[1][0] + "]"
            rendered_self_ms.append(float(by_name[name]["self_ms"]))
        assert rendered_self_ms == sorted(rendered_self_ms, reverse=True)


class TestFlightRecorderLive:
    def test_degraded_request_captured_with_tree(self, served):
        """chaos-gate twin: kill one shard's worker on submit AND the
        supervised retry so the response is served degraded, then check
        the postmortem JSONL got the full story."""
        service, server, postmortem_path = served
        client = ServiceClient(server.address)
        before = service.recorder.postmortem_count
        inject.kill_worker(1, times=2)
        response = client.discover(query_table("degraded"), k=3, trace=True)
        inject.reset()
        assert response["payload"]["degraded_shards"] == [1]
        assert service.recorder.postmortem_count == before + 1

        docs = [
            json.loads(line)
            for line in postmortem_path.read_text(encoding="utf-8").splitlines()
        ]
        doc = docs[-1]
        assert doc["kind"] == "postmortem"
        assert doc["reason"] == "degraded"
        assert doc["summary"]["degraded_shards"] == [1]
        assert doc["trace"], "postmortem must include the span tree"
        assert doc["trace"]["trace_id"] == doc["trace_id"]
        # The dumped tree is the server's own: it reaches down to the
        # scatter and the shards that did answer.
        assert find_all(doc["trace"], "discover.scatter")

    def test_health_reports_respawn_age_and_slo(self, served):
        """Satellite (c): after the degraded test's kill, supervision
        respawned shard 1's worker -- health shows a fresh respawn age
        there, liveness everywhere, and the SLO monitor's view."""
        _, server, _ = served
        client = ServiceClient(server.address)
        health = client.health()
        assert health["lake_epoch"] >= 1
        shards = {entry["shard"]: entry for entry in health["shards"]}
        assert len(shards) == NUM_SHARDS
        assert all(entry["alive"] for entry in shards.values())
        respawned = [
            entry for entry in shards.values()
            if entry["last_respawn_age_s"] is not None
        ]
        assert respawned, "the killed shard must report a respawn age"
        assert all(entry["last_respawn_age_s"] >= 0.0 for entry in respawned)
        slo = health["slo"]
        assert "degraded_rate" in slo["objectives"]
        assert slo["objectives"]["degraded_rate"]["burn"].keys() == {"60s", "600s"}
