"""The outside of the system: build a store, serve it from a real
``python -m repro serve`` subprocess at shipped defaults, drive it over TCP
with closed-loop ``ServiceClient`` threads, read its cost from ``/proc``,
and check its answers against an oracle.

Nothing here looks inside the program: latency is what the client thread
waited, CPU and memory are what the kernel charged the server's process
tree, bytes are what sits on disk.  ``layers.py`` does the looking inside.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Callable

from repro import Dialite
from repro.datalake import DataLake
from repro.service import LakeService, ServiceClient, oracle_discover_payload
from repro.shard import ShardedLakeStore, open_any_store
from repro.store import LakeStore
from repro.table import Table

import workloads as wl

SRC = Path(__file__).resolve().parents[2] / "src"
SERVER_START_TIMEOUT_S = 60.0
MAX_CONSECUTIVE_FAILURES = 20  # a dead server must end the loop, not spin it


# ----------------------------------------------------------------------
# Small numeric helpers
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the smallest value with at least
    ``ceil(q * n)`` values at or below it)."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, ceil(q * len(ordered)))) - 1]


def digest(payload: dict) -> str:
    """Byte identity of a response payload, as the oracle contract states
    it: canonical JSON with sorted keys."""
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def tree_bytes(path: Path) -> dict[str, int]:
    """``{relative file path: size}`` of everything under *path*."""
    sizes = {}
    for folder, _dirs, files in os.walk(path):
        for name in files:
            file = Path(folder) / name
            try:
                sizes[str(file.relative_to(path))] = file.stat().st_size
            except FileNotFoundError:  # a writer replaced it mid-walk
                continue
    return sizes


# ----------------------------------------------------------------------
# /proc: CPU and memory of the server's process tree (psutil is not here)
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_stats() -> dict[int, list[str]]:
    """``{pid: fields of /proc/pid/stat after the command name}`` for every
    process: state, ppid, pgrp, ... (utime, stime, cutime, cstime at 11-14)."""
    stats = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                raw = Path(f"/proc/{entry}/stat").read_text()
            except (FileNotFoundError, ProcessLookupError):
                continue
            # "pid (comm) state ppid pgrp ..." -- comm may hold spaces and parens.
            stats[int(entry)] = raw[raw.rindex(")") + 2:].split()
    return stats


def process_tree(root: int, stats: dict[int, list[str]] | None = None) -> list[int]:
    """*root* and every live descendant (the forked shard workers)."""
    stats = _proc_stats() if stats is None else stats
    tree, frontier = [], [root] if root in stats else []
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(child for child, fields in stats.items() if int(fields[1]) == pid)
    return tree


def tree_cpu_seconds(root: int) -> float:
    """utime + stime of the live tree, plus the cutime + cstime each member
    inherited from children it reaped (a shard worker replaced after an
    ingest moves its CPU there), so the sum never loses work."""
    stats = _proc_stats()
    ticks = sum(int(stats[pid][i]) for pid in process_tree(root, stats) for i in (11, 12, 13, 14))
    return ticks / _TICKS


def tree_peak_rss_mib(tree: list[int]) -> float:
    """Sum of VmHWM over the processes of *tree*."""
    total_kib = 0
    for pid in tree:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def group_members(pgid: int) -> list[int]:
    """Live (not zombie) processes of one process group."""
    return [
        pid for pid, fields in _proc_stats().items()
        if int(fields[2]) == pgid and fields[0] != "Z"
    ]


# ----------------------------------------------------------------------
# Store build (the first two thirds of setup_s)
# ----------------------------------------------------------------------
@dataclass
class BuiltStore:
    path: Path
    version: int
    build_ingest_s: float
    build_index_s: float


def build_store(workload: wl.Workload, tables: list[Table], path: Path, shards: int) -> BuiltStore:
    """Ingest *tables* and fit + persist the default roster's indexes, the
    way ``repro index build [--shards N]`` does, with fsync as shipped."""
    start = time.perf_counter()
    if workload.lake == "sharded":
        store = ShardedLakeStore.create(path, num_shards=shards)
    else:
        store = LakeStore.create(path)
    store.ingest(DataLake(tables))
    ingested = time.perf_counter()
    pipeline = Dialite(store=store).fit()
    if workload.lake == "sharded":
        pipeline.index.close()  # sharded hydration already persisted per shard
    else:
        pipeline.index.save_to_store(store)
    return BuiltStore(
        path=path,
        version=store.lake_version,
        build_ingest_s=ingested - start,
        build_index_s=time.perf_counter() - ingested,
    )


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve --store PATH`` with every option at its
    shipped default, in its own session so the whole tree (server plus
    forked shard workers) can be signalled as one group."""

    def __init__(self, store_path: Path, scratch: Path):
        self._port_file = scratch / f"port-{store_path.name}"
        self._port_file.unlink(missing_ok=True)  # a previous server's address
        self._log = (scratch / f"server-{store_path.name}.log").open("wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store_path),
             "--port-file", str(self._port_file)],
            env=env, stdout=self._log, stderr=self._log, start_new_session=True,
        )
        try:
            self.address = self._await_port()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _await_port(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            try:
                host, port, _version = self._port_file.read_text().split()
                return host, int(port)
            except (FileNotFoundError, ValueError):  # not written (fully) yet
                time.sleep(0.005)
        raise RuntimeError("repro serve never wrote its port file")

    def client(self) -> ServiceClient:
        return ServiceClient(self.address)

    def stop(self) -> None:
        """Kill and reap the whole group.  Nothing is asked of the server
        first: its store is scratch, and a group kill also ends a server
        that hangs, has crashed, or never finished starting.  Idempotent:
        once reaped, the pid may belong to someone else."""
        if self._log.closed:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        deadline = time.monotonic() + 5.0
        while group_members(self.process.pid) and time.monotonic() < deadline:
            time.sleep(0.005)  # orphaned shard workers are reaped by init
        self._log.close()


class Workspace:
    """One run's scratch directory inside the checkout, removed on exit, with
    every server started in it stopped first -- on success, on an exception
    and on SIGINT/SIGTERM (turned into exceptions so ``finally`` runs)."""

    def __init__(self, parent: Path):
        parent.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
        self._servers: list[Server] = []
        self._old_sigterm = None

    def __enter__(self) -> "Workspace":
        def interrupt(_signum, _frame):
            raise KeyboardInterrupt

        self._old_sigterm = signal.signal(signal.SIGTERM, interrupt)
        return self

    def serve(self, store_path: Path) -> Server:
        server = Server(store_path, self.path)
        self._servers.append(server)
        return server

    def __exit__(self, *exc_info) -> None:
        for server in self._servers:
            server.stop()
        shutil.rmtree(self.path, ignore_errors=True)
        signal.signal(signal.SIGTERM, self._old_sigterm)


# ----------------------------------------------------------------------
# Requests: what a client thread sends, and what it records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One read request, addressed so that it can be regenerated: ``op``
    plus the ``(stream, index)`` of its query table."""

    op: str  # discover | integrate
    stream: str  # "hot" indexes the pre-warmed set; any other name is a fresh stream
    index: int


class Inputs:
    """The seeded request tables of one run (hot tables built once)."""

    def __init__(self, seed: int, scale: wl.Scale):
        self.seed, self.scale = seed, scale
        self._hot: dict[int, Table] = {}

    def table(self, request: Request) -> Table:
        if request.op == "integrate":
            return wl.fragment_query(self.seed, self.scale, request.stream, request.index)
        if request.stream != "hot":
            return wl.key_query(self.seed, self.scale, request.stream, request.index)
        if request.index not in self._hot:
            self._hot[request.index] = wl.key_query(self.seed, self.scale, "hot", request.index)
        return self._hot[request.index]


def send(client: ServiceClient, request: Request, table: Table, trace: bool = False) -> dict:
    if request.op == "integrate":
        return client.integrate(
            query=table, k=wl.INTEGRATE_K, column=wl.FRAGMENT_KEY, trace=trace
        )
    return client.discover(table, k=wl.DISCOVER_K, column=wl.KEY_COLUMN, trace=trace)


@dataclass
class Sample:
    op: str  # discover | integrate | ingest | probe
    start: float
    end: float
    ok: bool
    request: Request | None = None
    version: int | None = None
    digest: str | None = None
    visible_s: float | None = None  # ingest only: send -> first reply listing the table
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start

    def fail(self, reason: str) -> None:
        self.ok, self.error = False, reason


@dataclass
class Window:
    seconds: float
    start: float = 0.0
    samples: list[Sample] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    processes: int = 0  # server + forked shard workers alive at the window's end

    def completed(self) -> list[Sample]:
        """Correct replies that arrived inside the window."""
        horizon = self.start + self.seconds
        return [s for s in self.samples if s.ok and s.end <= horizon]

    def throughput_rps(self) -> float:
        return len(self.completed()) / self.seconds


def timed_call(op: str, request: Request | None, call: Callable[[], dict]) -> tuple[Sample, dict | None]:
    """Run one client call; an exception, refusal or timeout is a failed
    sample, never a crash of the load generator."""
    start = time.perf_counter()
    try:
        response = call()
    except Exception as error:  # noqa: BLE001 - every failure kind counts as a failed op
        sample = Sample(op, start, time.perf_counter(), False, request)
        sample.error = f"{type(error).__name__}: {error}"
        return sample, None
    end = time.perf_counter()
    return Sample(op, start, end, True, request, version=response.get("lake_version")), response


def read_once(client: ServiceClient, request: Request, table: Table) -> Sample:
    sample, response = timed_call(request.op, request, lambda: send(client, request, table))
    if response is not None:
        sample.digest = digest(response["payload"])
        if response["payload"].get("degraded_shards"):
            sample.fail("degraded answer")
    return sample


def write_cycle(client: ServiceClient, inputs: Inputs, index: int) -> list[Sample]:
    """Ingest one new table, then probe: the first reply must be stamped
    with the new version (or later) **and** list the table.  Returns the
    ingest sample (carrying ``visible_s``) and the probe sample."""
    table = wl.new_table(inputs.seed, inputs.scale, "w", index)
    probe = wl.probe_for(table, inputs.seed, inputs.scale)
    ingest, report = timed_call("ingest", None, lambda: {"payload": client.ingest([table])})
    if report is None:
        return [ingest]
    if table.name not in report["payload"]["added"]:
        ingest.fail(f"ingest did not add {table.name}")
    sample, response = timed_call(
        "probe", None, lambda: client.discover(probe, k=wl.DISCOVER_K, column=wl.KEY_COLUMN)
    )
    if response is not None:
        listed = any(r["table"] == table.name for r in response["payload"]["results"])
        if response["lake_version"] >= report["payload"]["lake_version"] and listed:
            ingest.visible_s = sample.end - ingest.start
        else:
            # The ack promised visibility: a stale stamp or a missing
            # table after it is a wrong answer, not a reason to poll.
            sample.fail(f"{table.name} not visible at v{response['lake_version']}")
    return [ingest, sample]


def client_loop(deadline: float, step: Callable[[], list[Sample]], out: list[Sample]) -> None:
    """One client thread: *step* after *step* until the deadline.  A step
    returns when its reply is in, and the next starts at once: callers of
    this system wait for their answer, so the loop is closed, with zero
    think time."""
    failures = 0
    while time.perf_counter() < deadline and failures < MAX_CONSECUTIVE_FAILURES:
        for sample in step():
            out.append(sample)
            failures = 0 if sample.ok else failures + 1


def run_window(
    server: Server, workload: wl.Workload, inputs: Inputs, seconds: float
) -> Window:
    """The timed window: two closed-loop client threads in this process,
    server CPU read from /proc at its edges and peak RSS once the last reply
    is in.  Both threads read, except on the workload with a writer, where
    the second one ingests, probes and sleeps, cycle after cycle."""
    client = server.client()
    scale = inputs.scale
    zipf = wl.ZipfPicker(scale.hot_queries)
    window = Window(seconds=seconds)

    def reader(thread: int) -> Callable[[], list[Sample]]:
        rng = random.Random(f"{inputs.seed}:window:{workload.name}:{thread}")
        fresh = itertools.count()

        def step() -> list[Sample]:
            if workload.reads == "hot" or (workload.reads == "mixed" and rng.random() < 0.5):
                request = Request("discover", "hot", zipf.pick(rng))
            else:
                request = Request(workload.primary, f"w{thread}", next(fresh))
            return [read_once(client, request, inputs.table(request))]

        return step

    def writer() -> Callable[[], list[Sample]]:
        cycles = itertools.count()

        def step() -> list[Sample]:
            samples = write_cycle(client, inputs, next(cycles))
            time.sleep(max(0.0, min(scale.writer_sleep_s, deadline - time.perf_counter())))
            return samples

        return step

    steps = [reader(0), writer() if workload.writer else reader(1)]
    outputs: list[list[Sample]] = [[] for _ in steps]
    cpu_before = tree_cpu_seconds(server.pid)
    window.start = time.perf_counter()
    deadline = window.start + seconds
    threads = [
        threading.Thread(target=client_loop, args=(deadline, step, out), daemon=True)
        for step, out in zip(steps, outputs)
    ]
    for thread in threads:
        thread.start()
    time.sleep(max(0.0, deadline - time.perf_counter()))
    window.cpu_s = tree_cpu_seconds(server.pid) - cpu_before
    for thread in threads:
        thread.join(timeout=120.0)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish its last request")
    # After the last reply, so a write cycle caught by the deadline is over
    # and the worker it replaced is gone before memory is summed.
    tree = process_tree(server.pid)
    window.peak_rss_mib = tree_peak_rss_mib(tree)
    window.processes = len(tree)
    window.samples = [sample for out in outputs for sample in out]
    return window


def warm_requests(workload: wl.Workload, scale: wl.Scale) -> list[Request]:
    """Sent before timing: every hot query once and a run of cold ones, so
    every shard worker is hydrated and lazy set-up is over.  The first of
    them is the reply that ends ``setup_s``."""
    if workload.primary == "integrate":
        return [Request("integrate", "warm", i) for i in range(scale.warm_integrates)]
    requests = [Request("discover", "warm", i) for i in range(scale.warm_cold)]
    if workload.reads != "fresh":
        requests += [Request("discover", "hot", i) for i in range(scale.hot_queries)]
    return requests


def warm_reply(server: Server, request: Request, inputs: Inputs, version: int) -> None:
    """One warm-up request; anything but a non-empty answer stamped with
    the built version means the set-up is broken, so stop here."""
    sample, response = timed_call(
        request.op, request, lambda: send(server.client(), request, inputs.table(request))
    )
    if response is None:
        raise RuntimeError(f"warm-up request failed: {sample.error}")
    payload = response["payload"]
    answer = payload["results"] if request.op == "discover" else payload["table"]["rows"]
    if response["lake_version"] != version or not answer:
        raise RuntimeError(f"warm-up reply is wrong: v{response['lake_version']}, {len(answer)} rows")


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
class Oracle:
    """A fresh pipeline opened on the store at its current version: what the
    never-stale contract says every reply stamped with that version must
    equal, byte for byte."""

    def __init__(self, store_path: Path):
        self.version = open_any_store(store_path).lake_version
        self.pipeline = Dialite.open(store_path).fit()
        # The integrate payload (canonical query name, display table, wire
        # cell encoding) has one definition, the service handler; an
        # in-process service over the fresh pipeline is that definition
        # without sockets, batching or other clients.
        self._service = LakeService(pipeline=self.pipeline)

    def digest_of(self, request: Request, table: Table) -> str:
        if request.op == "discover":
            payload = oracle_discover_payload(
                self.pipeline, table, k=wl.DISCOVER_K, query_column=wl.KEY_COLUMN
            )
        else:
            payload = self._service.integrate(
                query=table, k=wl.INTEGRATE_K, query_column=wl.FRAGMENT_KEY
            ).payload
        return digest(payload)

    def close(self) -> None:
        self._service.close()  # also releases a sharded index's workers


def verify(
    server: Server, store_path: Path, workload: wl.Workload, window: Window, inputs: Inputs,
    base_version: int,
) -> list[Sample]:
    """Mark wrong answers in *window* as failed; returns the samples of
    requests sent again for the check (the workload with a writer only).

    * Every reply to one request at one version must be identical.
    * A seeded sample of ``oracle_sample`` requests is compared with the
      oracle at the store's current version: the window's own replies
      where the version never moved, otherwise (a writer's window
      replies carry versions the store has since left) the same requests
      sent again now.
    * Beside a writer, replies must carry a version that existed, and the
      reader must never see the version go backwards.
    """
    reads = [s for s in window.samples if s.request is not None and s.ok]
    first_seen: dict[tuple, str] = {}
    for sample in reads:
        if first_seen.setdefault((sample.request, sample.version), sample.digest) != sample.digest:
            sample.fail("two different replies at one version")

    oracle = Oracle(store_path)
    try:
        rng = random.Random(f"{inputs.seed}:oracle:{workload.name}")
        requests = sorted({s.request for s in reads}, key=lambda r: (r.op, r.stream, r.index))
        chosen = rng.sample(requests, min(inputs.scale.oracle_sample, len(requests)))
        expected = {r: oracle.digest_of(r, inputs.table(r)) for r in chosen}
        if not workload.writer:
            for sample in reads:
                if sample.version != oracle.version:
                    sample.fail(f"version moved to {sample.version}")
                elif expected.get(sample.request, sample.digest) != sample.digest:
                    sample.fail("differs from the oracle")
            return []
        seen = base_version
        for sample in sorted(reads, key=lambda s: s.start):
            if not seen <= sample.version <= oracle.version:
                sample.fail(f"version {sample.version} after {seen}")
            seen = max(seen, sample.version)
        client = server.client()
        again = [read_once(client, request, inputs.table(request)) for request in chosen]
        for sample in again:
            if sample.ok and (sample.version, sample.digest) != (
                oracle.version, expected[sample.request]
            ):
                sample.fail("differs from the oracle")
        return again
    finally:
        oracle.close()
