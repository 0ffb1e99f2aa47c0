"""Command-line interface: the DIALITE pipeline over CSV lake directories.

The demo paper fronts the pipeline with a web app; this CLI is the
equivalent headless surface::

    python -m repro lake-info  --lake lake/
    python -m repro profile    --lake lake/ [--table T3]
    python -m repro generate   --prompt "covid cases, 5 rows" --out query.csv
    python -m repro index build  --lake lake/ --store lake.store
    python -m repro index update --lake lake/ --store lake.store
    python -m repro index info   --store lake.store
    python -m repro discover   --store lake.store --query query.csv --column City
    python -m repro discover   --lake lake/ --query query.csv --column City -k 5
    python -m repro discover   --lake lake/ --queries q1.csv q2.csv --column City
    python -m repro integrate  --lake lake/ --query query.csv --column City \
                               --integrator alite_fd --out integrated.csv
    python -m repro integrate  --tables a.csv b.csv c.csv --out integrated.csv
    python -m repro integrate  --tables a.csv b.csv c.csv --explain
    python -m repro serve      --store lake.store --port 8765 --workers 8
    python -m repro obs export 127.0.0.1:8765 --format prometheus
    python -m repro obs top    127.0.0.1:8765 --interval 2
    python -m repro discover   --service 127.0.0.1:8765 --query query.csv --column City
    python -m repro integrate  --service 127.0.0.1:8765 --query query.csv --column City
    python -m repro analyze    --table integrated.csv --app correlation \
                               --option "columns=Vaccination Rate,Death Rate"
    python -m repro report     --lake lake/ --query query.csv --column City \
                               --out run.md

Every command prints human-readable tables to stdout; ``--out`` writes CSV
with the paper's ``±``/``⊥`` null markers.  ``serve`` puts a warm lake
behind the concurrent serving layer (:mod:`repro.service`);
``--service host:port`` routes discover/integrate through a running
service instead of opening the store locally.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from .core.pipeline import Dialite
from .datalake.catalog import DataLake
from .genquery.generator import generate_query_table
from .integration.tuples import IntegratedTable
from .store.lakestore import LakeStore, StoreError, StoreNotFound
from .table.io import read_csv, write_csv
from .table.table import Table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of all CLI subcommands (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIALITE reproduction: discover, align and integrate open data tables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("lake-info", help="summarize a CSV lake directory")
    info.add_argument("--lake", required=True, help="directory of CSV files")

    profile = commands.add_parser(
        "profile", help="per-column statistics for every table in a lake"
    )
    profile.add_argument("--lake", required=True, help="directory of CSV files")
    profile.add_argument("--table", default=None, help="profile one table only")

    generate = commands.add_parser("generate", help="generate a query table from a prompt")
    generate.add_argument("--prompt", required=True)
    generate.add_argument("--rows", type=int, default=None)
    generate.add_argument("--columns", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", default=None, help="write the table as CSV")

    index = commands.add_parser(
        "index", help="build / update / inspect a persistent lake store"
    )
    index_commands = index.add_subparsers(dest="index_command", required=True)
    index_build = index_commands.add_parser(
        "build", help="ingest a CSV lake into a store and fit discoverer indexes"
    )
    index_update = index_commands.add_parser(
        "update", help="incrementally re-ingest a CSV lake into an existing store"
    )
    for sub in (index_build, index_update):
        sub.add_argument("--lake", required=True, help="directory of CSV files")
        sub.add_argument("--store", required=True, help="lake store directory")
        sub.add_argument(
            "--discoverers", default=None,
            help="comma-separated roster to fit (default: santos,lsh_ensemble,josie)",
        )
        sub.add_argument(
            "--all-discoverers", action="store_true",
            help="fit every built-in discoverer (adds starmie, tus, cocoa)",
        )
    index_build.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="create a sharded lake of N shards (content-hash routed; "
        "discovery scatter-gathers with byte-identical results)",
    )
    index_info = index_commands.add_parser(
        "info", help="summarize a store: version, tables, persisted indexes"
    )
    index_info.add_argument("--store", required=True, help="lake store directory")

    store_cmd = commands.add_parser(
        "store", help="maintain a lake store's on-disk layout"
    )
    store_commands = store_cmd.add_subparsers(dest="store_command", required=True)
    store_recover = store_commands.add_parser(
        "recover",
        help="settle a crashed writer's intent journal (roll an interrupted "
        "ingest/rebalance forward or back, delete orphan temp files); the "
        "same recovery runs implicitly on every open",
    )
    store_recover.add_argument(
        "--store", required=True, help="lake store directory (plain or sharded)"
    )
    store_shard = store_commands.add_parser(
        "shard",
        help="create, resize or inspect a sharded lake "
        "(N content-hash-routed sub-stores under one manifest)",
    )
    shard_commands = store_shard.add_subparsers(dest="shard_command", required=True)
    shard_init = shard_commands.add_parser(
        "init", help="create an empty sharded lake store"
    )
    shard_init.add_argument("--store", required=True, help="sharded lake directory")
    shard_init.add_argument(
        "--shards", type=int, required=True, metavar="N", help="number of shards"
    )
    shard_init.add_argument(
        "--routing-seed", type=int, default=None,
        help="routing hash seed (default: derived from the layout)",
    )
    shard_rebalance = shard_commands.add_parser(
        "rebalance",
        help="re-route every table into a new shard count (full rewrite; "
        "drops persisted per-shard indexes and the global fit state)",
    )
    shard_rebalance.add_argument("--store", required=True, help="sharded lake directory")
    shard_rebalance.add_argument(
        "--shards", type=int, required=True, metavar="N", help="new number of shards"
    )
    shard_rebalance.add_argument(
        "--routing-seed", type=int, default=None,
        help="new routing seed (default: keep the current one)",
    )
    shard_info = shard_commands.add_parser(
        "info", help="per-shard table counts and versions"
    )
    shard_info.add_argument("--store", required=True, help="sharded lake directory")

    discover = commands.add_parser("discover", help="find tables related to a query")
    _add_discovery_arguments(discover, query_required=False)
    discover.add_argument(
        "--queries", nargs="+", default=None,
        help="batch of query CSVs: the lake is indexed once and each query's "
        "column sketches are computed once across all discoverers",
    )
    discover.add_argument(
        "--explain", action="store_true",
        help="also print per-discoverer retrieval accounting: candidates "
        "retrieved before scoring, channels used, fallbacks",
    )
    discover.add_argument(
        "--trace", action="store_true",
        help="print the request's span tree: nested wall/self timings and "
        "counters for every pipeline stage (service requests return the "
        "server-side tree)",
    )

    integrate = commands.add_parser(
        "integrate", help="discover (or take) an integration set and integrate it"
    )
    _add_discovery_arguments(integrate, query_required=False)
    integrate.add_argument(
        "--tables", nargs="+", default=None,
        help="explicit integration set (CSV files); skips discovery",
    )
    integrate.add_argument("--integrator", default=None)
    integrate.add_argument("--no-align", action="store_true", help="inputs are pre-aligned")
    integrate.add_argument("--out", default=None, help="write the integrated table as CSV")
    integrate.add_argument(
        "--explain", action="store_true",
        help="print kernel accounting: connected components, interned "
        "domain size, intern/partition/closure/subsume timings",
    )
    integrate.add_argument(
        "--trace", action="store_true",
        help="print the request's span tree (discovery, alignment and the "
        "FD kernel's intern/partition/closure/subsume phases)",
    )

    trace_cmd = commands.add_parser(
        "trace",
        help="re-run a discover/integrate invocation with --trace appended",
        description="Shorthand: `repro trace discover --lake lake/ --query q.csv` "
        "is `repro discover --lake lake/ --query q.csv --trace`.",
    )
    trace_cmd.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="the discover/integrate command line to trace",
    )

    serve = commands.add_parser(
        "serve", help="serve a lake store to concurrent clients over TCP"
    )
    serve.add_argument("--store", required=True, help="lake store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one, printed at start)")
    serve.add_argument("--workers", type=int, default=4, help="worker threads")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max in-flight requests before overload rejection")
    serve.add_argument("--cache-capacity", type=int, default=1024,
                       help="result-cache entries (LRU)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       help="result-cache TTL seconds (default: version-bound only)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds")
    serve.add_argument("--candidate-budget", type=int, default=None)
    serve.add_argument("--port-file", default=None,
                       help="write 'host port lake_version' here once bound (for scripts)")
    serve.add_argument("--trace-path", default=None,
                       help="JSONL sink: every request's span tree, one per line")
    serve.add_argument("--trace-path-max-bytes", type=int, default=None,
                       help="rotate the trace sink past this size (keeps 3 backups)")
    serve.add_argument("--postmortem-path", default=None,
                       help="flight-recorder postmortem JSONL: full span tree + "
                       "recent request ring on every errored/deadline/degraded/"
                       "slow request")
    serve.add_argument("--latency-threshold-ms", type=float, default=None,
                       help="also trip a postmortem when a request exceeds this latency")
    serve.add_argument("--export-path", default=None,
                       help="telemetry exporter JSONL: periodic metrics snapshots "
                       "+ completed span trees (rotating)")
    serve.add_argument("--export-interval", type=float, default=30.0,
                       help="exporter flush interval in seconds (default 30)")

    obs = commands.add_parser(
        "obs", help="operate on a running service's telemetry"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_export = obs_commands.add_parser(
        "export", help="pull a running service's merged metrics snapshot"
    )
    obs_export.add_argument("address", metavar="HOST:PORT",
                            help="a running `repro serve` instance")
    obs_export.add_argument(
        "--format", dest="export_format", default="prometheus",
        choices=("prometheus", "json"),
        help="prometheus text exposition (default) or the raw JSON snapshot",
    )
    obs_export.add_argument("--out", default=None, help="write here instead of stdout")
    obs_top = obs_commands.add_parser(
        "top", help="poll a running service's health: status, SLO burn, shards"
    )
    obs_top.add_argument("address", metavar="HOST:PORT",
                         help="a running `repro serve` instance")
    obs_top.add_argument("--interval", type=float, default=2.0,
                         help="poll interval in seconds (default 2)")
    obs_top.add_argument("--iterations", type=int, default=None,
                         help="stop after N polls (default: until Ctrl-C)")

    report = commands.add_parser(
        "report", help="run the full pipeline and write a markdown report"
    )
    _add_discovery_arguments(report)
    report.add_argument("--integrator", default="alite_fd")
    report.add_argument("--out", default=None, help="write the markdown report here")

    analyze = commands.add_parser("analyze", help="run a downstream app over a table")
    analyze.add_argument("--table", required=True, help="CSV file to analyze")
    analyze.add_argument("--app", default="describe",
                         help="describe | aggregation | correlation | entity_resolution")
    analyze.add_argument(
        "--option", action="append", default=[],
        help="app option as key=value; comma-separated values become lists",
    )
    return parser


def _add_discovery_arguments(parser: argparse.ArgumentParser, query_required: bool = True) -> None:
    parser.add_argument("--lake", default=None, help="directory of CSV files")
    parser.add_argument(
        "--store", default=None,
        help="persistent lake store directory (warm start; alternative to --lake)",
    )
    parser.add_argument(
        "--service", default=None, metavar="HOST:PORT",
        help="route through a running `repro serve` instance instead of "
        "opening the lake locally (shared warm indexes + result cache)",
    )
    parser.add_argument("--query", required=query_required, default=None, help="query table CSV")
    parser.add_argument("--column", default=None, help="intent/join column of the query")
    parser.add_argument("-k", type=int, default=10, help="top-k per discoverer")
    parser.add_argument(
        "--discoverers", default=None,
        help="comma-separated subset (santos,lsh_ensemble,josie)",
    )
    parser.add_argument(
        "--candidate-budget", type=int, default=None,
        help="cap candidate tables retrieved per discoverer before scoring "
        "(default: unbudgeted, which guarantees full-scan-identical top-k)",
    )


def _parse_options(raw_options: Sequence[str]) -> dict[str, Any]:
    options: dict[str, Any] = {}
    for raw in raw_options:
        if "=" not in raw:
            raise SystemExit(f"--option must be key=value, got {raw!r}")
        key, _, value = raw.partition("=")
        if "," in value:
            options[key.strip()] = [part.strip() for part in value.split(",")]
        else:
            options[key.strip()] = value.strip()
    return options


def _load_pipeline(args: argparse.Namespace) -> Dialite:
    """The discovery pipeline behind discover/integrate/report: a warm
    start from ``--store`` when given, else a cold fit over ``--lake``."""
    budget = getattr(args, "candidate_budget", None)
    if getattr(args, "store", None):
        return Dialite.open(args.store, candidate_budget=budget).fit()
    return Dialite(DataLake.from_dir(args.lake), candidate_budget=budget).fit()


def _resolve_roster(args: argparse.Namespace, lake) -> list:
    """The discoverer instances an index build should fit."""
    pipeline = (
        Dialite.with_all_discoverers(lake) if args.all_discoverers else Dialite(lake)
    )
    if args.discoverers:
        names = [n.strip() for n in args.discoverers.split(",") if n.strip()]
        return [pipeline.discoverers.get(name) for name in names]
    return pipeline.discoverers.components()


def _emit(table: Table, out: str | None) -> None:
    print(table.to_pretty(max_rows=50))
    if out:
        write_csv(table, out)
        print(f"\nwritten: {out}")


def _maybe_trace(enabled: bool, name: str):
    """``(tracer, context)`` -- an ambient tracer rooted at ``name`` when
    ``--trace`` was asked, else ``(None, nullcontext())`` (zero overhead)."""
    if not enabled:
        from contextlib import nullcontext

        return None, nullcontext()
    from contextlib import ExitStack

    from .obs import trace as tracing

    tracer = tracing.Tracer()
    stack = ExitStack()
    stack.enter_context(tracing.activate(tracer))
    stack.enter_context(tracer.span(name))
    return tracer, stack


def _print_trace(document: dict | None) -> None:
    """Render one span tree (local tracer dict or wire ``trace`` field)."""
    from .obs.trace import format_trace

    print("\ntrace:")
    print(format_trace(document or {}))


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_lake_info(args: argparse.Namespace) -> int:
    lake = DataLake.from_dir(args.lake)
    print(f"{len(lake)} tables, {lake.total_rows()} rows total\n")
    rows = [
        (name, table.num_rows, table.num_columns, ", ".join(table.columns[:6]))
        for name, table in lake.items()
    ]
    print(Table(["table", "rows", "cols", "columns"], rows, name="lake").to_pretty(100))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .datalake.profiler import profile_lake, profile_table

    lake = DataLake.from_dir(args.lake)
    if args.table is not None:
        print(profile_table(lake[args.table]).to_pretty(200))
    else:
        print(profile_lake(lake).to_pretty(500))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    table = generate_query_table(
        args.prompt, rows=args.rows, columns=args.columns, seed=args.seed
    )
    _emit(table, args.out)
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .shard import ShardedLakeStore, open_any_store

    if args.index_command == "info":
        store = open_any_store(args.store, check_sketch=False)
        info = store.info()
        if info.get("sharded"):
            _print_sharded_info(info)
            print(_bytes_line(store.artifact_bytes()))
            _print_live_service(args.store, info["lake_version"])
            return 0
        print(
            f"lake store: {info['path']}\n"
            f"format v{info['format_version']}, lake version {info['lake_version']}\n"
            f"{info['num_tables']} tables, {info['total_rows']} rows total\n"
            f"sketch config: {info['sketch']}"
        )
        print(_bytes_line(store.artifact_bytes()))
        if info["indexes"]:
            staleness = (
                "current"
                if info["indexes_lake_version"] == info["lake_version"]
                else f"stale (built at v{info['indexes_lake_version']})"
            )
            print(f"persisted indexes ({staleness}): {', '.join(info['indexes'])}")
        else:
            print("persisted indexes: none")
        for name, spec in sorted((info.get("candidate_specs") or {}).items()):
            budget = spec["budget"] if spec["budget"] is not None else "unbudgeted"
            print(
                f"  {name}: channels={'+'.join(spec['channels'])}, "
                f"budget={budget}, fallback floor={spec['min_candidates']}"
            )
        _print_live_service(args.store, info["lake_version"])
        if info["tables"]:
            rows = [
                (name, entry["rows"], entry["columns"], entry["content_hash"])
                for name, entry in sorted(info["tables"].items())
            ]
            print()
            print(
                Table(
                    ["table", "rows", "cols", "content_hash"], rows, name="store"
                ).to_pretty(200)
            )
        return 0

    lake = DataLake.from_dir(args.lake)
    if args.index_command == "build" and args.shards:
        store = ShardedLakeStore.create(
            args.store, num_shards=args.shards, exist_ok=True
        )
    else:
        try:  # whichever layout lives there keeps being built as it is
            store = open_any_store(args.store)
        except StoreNotFound:
            if args.index_command == "update":
                raise  # incremental by design, so the store must already exist
            store = LakeStore.create(args.store)
    report = store.ingest(lake)
    print(f"ingest {report.summary()}")
    # Hydrates what is current; fits and persists the rest.
    index = store.open_index(_resolve_roster(args, store.lake()))
    index.close()
    if not index.fitted:
        print("nothing to fit: lake unchanged, persisted indexes are current")
        return 0
    timings = ", ".join(
        f"{name}: {seconds:.2f}s" for name, seconds in sorted(index.fitted.items())
    )
    print(f"fitted indexes ({timings}) persisted to {store.path}")
    return 0


def _bytes_line(sizes: dict[str, int]) -> str:
    """The `index info` bytes-per-artifact-class line."""

    def show(size: int) -> str:
        return f"{size / 1e6:.2f} MB" if size >= 100_000 else f"{size / 1e3:.1f} kB"

    shown = ", ".join(f"{kind} {show(size)}" for kind, size in sizes.items())
    return f"bytes on disk: {shown} (total {show(sum(sizes.values()))})"


def _print_sharded_info(info: dict) -> None:
    """The `index info` / `store shard info` summary of a sharded lake."""
    print(
        f"sharded lake store: {info['path']}\n"
        f"format v{info['format_version']}, lake epoch {info['lake_version']}, "
        f"{info['num_shards']} shards (routing seed {info['routing_seed']})\n"
        f"{info['num_tables']} tables, {info['total_rows']} rows total\n"
        f"sketch config: {info['sketch']}"
    )
    if info.get("indexes"):
        print(f"persisted indexes (union across shards): {', '.join(info['indexes'])}")
    else:
        print("persisted indexes: none")
    rows = [
        (
            entry["name"],
            entry["lake_version"],
            entry["num_tables"],
            entry["total_rows"],
            ", ".join(entry["indexes"]) or "-",
        )
        for entry in info["shards"]
    ]
    print()
    print(
        Table(
            ["shard", "version", "tables", "rows", "indexes"], rows, name="shards"
        ).to_pretty(200)
    )


def _cmd_store(args: argparse.Namespace) -> int:
    from .shard import ShardedLakeStore, recover_any_store

    if args.store_command == "recover":
        repairs = recover_any_store(args.store)
        if not repairs:
            print("clean: no interrupted operation found")
            return 0
        for repair in repairs:
            where = f" (shard {repair['shard']})" if "shard" in repair else ""
            removed = repair.get("removed", [])
            print(
                f"{repair.get('op', '?')}{where}: {repair['action'].replace('_', ' ')}"
                + (f", {len(removed)} orphan file(s) removed" if removed else "")
            )
        return 0
    # `store shard init | rebalance | info`, the one other verb
    if args.shard_command == "init":
        seed = args.routing_seed if args.routing_seed is not None else 0
        store = ShardedLakeStore.create(
            args.store, num_shards=args.shards, routing_seed=seed
        )
        print(
            f"created empty sharded lake at {store.path}: "
            f"{store.num_shards} shards, routing seed {store.routing_seed}"
        )
        return 0
    store = ShardedLakeStore.open(args.store, check_sketch=False)
    if args.shard_command == "rebalance":
        before = store.num_shards
        store = store.rebalance(args.shards, routing_seed=args.routing_seed)
        print(
            f"rebalanced {len(store)} tables from {before} into "
            f"{store.num_shards} shards (routing seed {store.routing_seed}); "
            f"persisted indexes and global fit state dropped -- "
            f"run `repro index build` to refit"
        )
        return 0
    _print_sharded_info(store.info())  # shard info
    return 0


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(args.service)


def _print_service_discovery(response: dict) -> None:
    """Render one wire discover response like the local summary table."""
    rows = [
        (r["table"], round(r["score"], 4), r["discoverer"], r["reason"])
        for r in response["payload"]["results"]
    ]
    print(Table(["table", "score", "best_discoverer", "reason"], rows, name="discovery").to_pretty(50))
    print(
        f"lake v{response['lake_version']}"
        + (" (served from cache)" if response.get("cached") else "")
    )


def _print_live_service(store_path: str, store_version: int) -> None:
    """The `index info` live-service line: is a `repro serve` process
    currently holding this lake, and at which version?"""
    from .service import ServiceClient
    from .service.protocol import read_beacon

    beacon = read_beacon(store_path)
    if not beacon:
        print("live service: none")
        return
    address = f"{beacon['host']}:{beacon['port']}"
    pid = beacon.get("pid")
    if pid is not None:
        # An unclean exit leaves the beacon behind; a dead PID settles
        # "not serving" instantly instead of waiting out a ping timeout.
        import os

        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            print(
                f"live service: none "
                f"(stale beacon for {address}: process {pid} is gone)"
            )
            return
        except (PermissionError, OSError, ValueError):
            pass  # alive but not ours, or unreadable pid: fall through to ping
    try:
        served = ServiceClient(address, timeout=1.0).version()
    except Exception:
        print(f"live service: beacon for {address} is stale (not responding)")
        return
    freshness = (
        "current"
        if served == store_version
        else f"behind store (serving v{served}, store at v{store_version})"
    )
    print(f"live service: {address} serving lake v{served} ({freshness})")


def _cmd_discover(args: argparse.Namespace) -> int:
    if args.lake is None and args.store is None and args.service is None:
        raise SystemExit("discover requires --lake, --store or --service")
    if args.query is None and not args.queries:
        raise SystemExit("discover requires --query or --queries")
    if args.query is not None and args.queries:
        raise SystemExit("pass either --query or --queries, not both")
    names = args.discoverers.split(",") if args.discoverers else None
    if args.service:
        _reject_local_only_flags(args, explain=_RUN_LOCALLY, candidate_budget=_OR_ON_SERVE)
        client = _service_client(args)
    else:
        pipeline = _load_pipeline(args)
    tracer, tracing_ctx = _maybe_trace(args.trace and not args.service, "cli.discover")
    with tracing_ctx:
        for path in args.queries or [args.query]:
            query = read_csv(path)
            print(f"query: {query.name}")
            if args.service:
                response = client.discover(
                    query, k=args.k, column=args.column, discoverers=names,
                    trace=args.trace,
                )
                _print_service_discovery(response)
                if args.trace:
                    _print_trace(response.get("trace"))
            else:
                outcome = pipeline.discover(
                    query, k=args.k, query_column=args.column, discoverer_names=names
                )
                print(outcome.summary().to_pretty(50))
                if args.explain:
                    _print_retrieval(outcome.retrieval)
            print()
    if args.explain:
        print(pipeline.index.engine_summary())
    if tracer is not None:
        _print_trace(tracer.to_dict())
    return 0


_RUN_LOCALLY = "run the command locally (--lake / --store) to use it"
_OR_ON_SERVE = _RUN_LOCALLY + ", or set it on `repro serve`"


def _reject_local_only_flags(args: argparse.Namespace, **advice: str) -> None:
    """``--service`` sends a request to a server that has its own engine:
    a local-only flag would be dropped on the way, so it is refused by name."""
    for flag, what_to_do in advice.items():
        if getattr(args, flag):
            raise SystemExit(
                f"--{flag.replace('_', '-')} has no effect with --service: {what_to_do}"
            )


def _print_retrieval(retrieval: dict) -> None:
    """The candidates-before-scoring accounting of one discover call."""
    print("\nretrieval (candidates before scoring):")
    for name, report in sorted(retrieval.items()):
        shape = "exhaustive" if report["exhaustive"] else "+".join(report["channels"])
        notes = []
        if report["fallback"]:
            notes.append("exhaustive fallback")
        if report["truncated"]:
            notes.append("budget-truncated")
        suffix = f" [{', '.join(notes)}]" if notes else ""
        print(
            f"  {name}: {report['scored']}/{report['lake_size']} tables scored "
            f"({report['retrieved']} retrieved via {shape}, "
            f"{report['probes']} probes){suffix}"
        )


def _cmd_integrate(args: argparse.Namespace) -> int:
    want_tree = args.trace or args.explain
    if args.service:
        from .obs.trace import Tracer
        from .service import decode_table

        _reject_local_only_flags(args, discoverers=_RUN_LOCALLY, candidate_budget=_OR_ON_SERVE)
        client = _service_client(args)
        if args.tables:
            response = client.integrate(
                tables=[read_csv(path) for path in args.tables],
                integrator=args.integrator,
                align=not args.no_align,
                trace=want_tree,
            )
        else:
            if args.query is None:
                raise SystemExit("integrate --service requires --query or --tables")
            response = client.integrate(
                query=read_csv(args.query),
                k=args.k,
                column=args.column,
                integrator=args.integrator,
                align=not args.no_align,
                trace=want_tree,
            )
        print(
            "integration set: "
            + ", ".join(response["payload"]["integration_set"])
            + f"  (lake v{response['lake_version']}"
            + (", served from cache)" if response.get("cached") else ")")
            + "\n"
        )
        if args.explain:
            _print_kernel_stats(Tracer().attach_tree(response.get("trace")))
        _emit(decode_table(response["payload"]["table"]), args.out)
        if args.trace:
            _print_trace(response.get("trace"))
        return 0
    tracer, tracing_ctx = _maybe_trace(want_tree, "cli.integrate")
    if args.tables:
        tables = [read_csv(path) for path in args.tables]
        pipeline = Dialite(DataLake())
        with tracing_ctx:
            result = pipeline.integrate(
                tables, integrator=args.integrator, align=not args.no_align
            )
    else:
        if (args.lake is None and args.store is None) or args.query is None:
            raise SystemExit(
                "integrate requires --tables, or --lake/--store with --query"
            )
        pipeline = _load_pipeline(args)
        query = read_csv(args.query)
        names = args.discoverers.split(",") if args.discoverers else None
        with tracing_ctx:
            outcome = pipeline.discover(
                query, k=args.k, query_column=args.column, discoverer_names=names
            )
            result = pipeline.integrate(
                outcome, integrator=args.integrator, align=not args.no_align
            )
        print("integration set: " + ", ".join([query.name, *outcome.discovered_names]) + "\n")
    if args.explain:
        _print_kernel_stats(tracer.root)
    display = result.to_display_table() if isinstance(result, IntegratedTable) else result
    _emit(display, args.out)
    if args.trace:
        _print_trace(tracer.to_dict())
    return 0


def _print_kernel_stats(root) -> None:
    """The FD kernel accounting of one integrate call (``--explain``), read
    off the ``integrate.fd`` span of the call's trace tree -- the local
    tracer's root or the rebuilt tree of a service reply."""
    from .integration.intern import fd_stats_from_span

    pending = [root] if root is not None else []
    while pending:
        fd_span = pending.pop()
        if fd_span.name == "integrate.fd":
            break
        pending.extend(fd_span.children)
    else:
        print("kernel accounting: no FD kernel ran for this reply\n")
        return
    stats = fd_stats_from_span(fd_span)
    print(
        f"FD kernel: {stats['input_tuples']} input tuples -> "
        f"{stats['output_tuples']} facts in {stats['components']} components "
        f"(largest {stats['largest_component']}, "
        f"{stats['all_null_tuples']} all-null), "
        f"interned domain {stats['domain']} values"
    )
    timings = [
        f"{phase} {stats[key]:.3f}s"
        for phase, key in (
            ("intern", "intern_seconds"),
            ("partition", "partition_seconds"),
            ("closure", "closure_seconds"),
            ("subsume", "subsume_seconds"),
        )
        if key in stats
    ]
    print("  " + " | ".join(timings) + "\n")


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <command ...>``: re-dispatch with ``--trace`` appended."""
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest or rest[0] not in ("discover", "integrate"):
        raise SystemExit(
            "trace wraps discover or integrate, "
            "e.g. repro trace discover --lake lake/ --query q.csv"
        )
    if "--trace" not in rest:
        rest.append("--trace")
    return main(rest)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import LakeServer, LakeService

    service = LakeService(
        store=args.store,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_capacity=args.cache_capacity,
        cache_ttl=args.cache_ttl,
        default_deadline=args.deadline,
        candidate_budget=args.candidate_budget,
        trace_path=args.trace_path,
        trace_path_max_bytes=args.trace_path_max_bytes,
        postmortem_path=args.postmortem_path,
        latency_threshold_ms=args.latency_threshold_ms,
        export_path=args.export_path,
        export_interval_s=args.export_interval,
    )
    server = LakeServer(service, host=args.host, port=args.port)
    host, port = server.address
    print(
        f"serving lake store {args.store} (lake v{service.version}, "
        f"{args.workers} workers, cache {args.cache_capacity}) on {host}:{port}"
    )
    print(
        "ops: ping version health stats metrics metrics_text discover align "
        "integrate ingest shutdown"
    )
    if args.port_file:
        from pathlib import Path

        Path(args.port_file).write_text(
            f"{host} {port} {service.version}\n", encoding="utf-8"
        )
    try:
        server.run()  # blocks until a client sends shutdown (or Ctrl-C)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        server.close()
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs export|top``: the telemetry pull surfaces."""
    from .service import ServiceClient

    client = ServiceClient(args.address)
    if args.obs_command == "export":
        if args.export_format == "prometheus":
            text = client.metrics_text()
        else:
            import json

            text = json.dumps(client.metrics(), indent=2, sort_keys=True) + "\n"
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text, encoding="utf-8")
            print(f"written: {args.out}")
        else:
            print(text, end="")
        return 0
    # top: poll health until interrupted (or --iterations polls).
    import time

    polls = 0
    try:
        while True:
            print(_render_top(client.health(), client.metrics()["gauges"]))
            polls += 1
            if args.iterations is not None and polls >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _render_top(health: dict, gauges: dict) -> str:
    """One `repro obs top` frame from a ``health`` wire payload and the
    ``metrics`` payload's gauges."""
    lines = [
        f"status: {health['status']}  "
        f"lake v{health['lake_version']} epoch {health.get('lake_epoch', '?')}  "
        f"inflight {health['inflight']}/{health['workers']} workers  "
        f"respawns {health.get('worker_respawns', 0)}"
    ]
    lines.append(
        f"  result cache: {int(gauges['service.cache.entries'])} entries, "
        f"{int(gauges['service.cache.bytes'])} bytes"
    )
    degraded = health.get("degraded_shards") or []
    if degraded:
        lines.append(f"degraded shards (last discover): {degraded}")
    slo = health.get("slo") or {}
    firing = {entry["objective"]: entry for entry in slo.get("firing", [])}
    for name, doc in (slo.get("objectives") or {}).items():
        burns = "  ".join(f"{w}={b:g}x" for w, b in doc.get("burn", {}).items())
        mark = ""
        if name in firing:
            mark = f"  FIRING ({firing[name]['severity']})"
        lines.append(f"  slo {name} (target {doc['target']}): burn {burns}{mark}")
    shards = health.get("shards")
    if shards:
        cells = []
        for entry in shards:
            age = entry.get("last_respawn_age_s")
            suffix = "" if age is None else f" respawned {age:.0f}s ago"
            cells.append(
                f"{entry['shard']}[v{entry['version']} "
                f"{'up' if entry.get('alive') else 'DOWN'}{suffix}]"
            )
        lines.append("  shards: " + " ".join(cells))
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import pipeline_report

    if args.lake is None and args.store is None:
        raise SystemExit("report requires --lake or --store")
    pipeline = _load_pipeline(args)
    query = read_csv(args.query)
    names = args.discoverers.split(",") if args.discoverers else None
    result = pipeline.run(
        query,
        k=args.k,
        query_column=args.column,
        integrator=args.integrator,
        analyses={"describe": {}},
    )
    del names  # run() always uses the full roster; subsets are a discover concern
    markdown = pipeline_report(result, title=f"DIALITE run: {query.name}")
    print(markdown)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(markdown, encoding="utf-8")
        print(f"written: {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    table = read_csv(args.table)
    pipeline = Dialite(DataLake())
    options = _parse_options(args.option)
    result = pipeline.analyze(table, args.app, **options)
    _print_analysis(result)
    return 0


def _print_analysis(result: Any) -> None:
    if isinstance(result, Table):
        print(result.to_pretty(50))
        return
    if isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, Table):
                print(f"{key}:")
                print(value.to_pretty(50))
            else:
                print(f"{key}: {value}")
        return
    entities = getattr(result, "entities", None)
    if entities is not None:  # an ERResult
        print(f"{result.num_entities} entities from {len(result.records)} rows")
        print(entities.to_pretty(50))
        return
    print(result)


_COMMANDS = {
    "lake-info": _cmd_lake_info,
    "profile": _cmd_profile,
    "generate": _cmd_generate,
    "index": _cmd_index,
    "store": _cmd_store,
    "discover": _cmd_discover,
    "integrate": _cmd_integrate,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "analyze": _cmd_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 for a store that is
    missing, damaged, of the wrong layout or format generation, or built
    under other sketch parameters)."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
