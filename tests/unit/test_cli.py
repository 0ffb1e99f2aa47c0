"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.datalake import DataLake
from repro.datalake.fixtures import (
    covid_joinable_table,
    covid_query_table,
    covid_unionable_table,
)
from repro.table import read_csv, write_csv

from old_store import (
    OTHER_FORMAT_VERSIONS,
    READS_ONLY,
    as_format_1,
    as_format_2,
    downgrade_to_v1,
)


@pytest.fixture
def lake_dir(tmp_path):
    DataLake([covid_unionable_table(), covid_joinable_table()]).save_to(tmp_path / "lake")
    return tmp_path / "lake"


@pytest.fixture
def query_csv(tmp_path):
    path = tmp_path / "query.csv"
    write_csv(covid_query_table(), path)
    return path


NO_KERNEL = "kernel accounting: no FD kernel ran for this reply"


def kernel_line(out: str) -> str:
    """The one ``FD kernel:`` line of an ``integrate --explain`` run (its
    sizes: input tuples / facts / components / domain; timings follow)."""
    [line] = [text for text in out.splitlines() if text.startswith("FD kernel:")]
    return line


class TestLakeInfo:
    def test_lists_tables(self, lake_dir, capsys):
        assert main(["lake-info", "--lake", str(lake_dir)]) == 0
        out = capsys.readouterr().out
        assert "T2" in out and "T3" in out and "7 rows total" in out


class TestProfile:
    def test_profiles_every_column(self, lake_dir, capsys):
        assert main(["profile", "--lake", str(lake_dir)]) == 0
        out = capsys.readouterr().out
        assert "distinct" in out and "distinct_est" not in out
        assert "Vaccination Rate" in out and "Death Rate" in out

    def test_single_table(self, lake_dir, capsys):
        assert main(["profile", "--lake", str(lake_dir), "--table", "T3"]) == 0
        out = capsys.readouterr().out
        assert "T3" in out and "T2" not in out


class TestGenerate:
    def test_prints_and_writes(self, tmp_path, capsys):
        out_file = tmp_path / "generated.csv"
        code = main(
            [
                "generate",
                "--prompt", "covid cases",
                "--rows", "4",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        assert "City" in capsys.readouterr().out
        assert read_csv(out_file).num_rows == 4


class TestDiscover:
    def test_discovers_both_tables(self, lake_dir, query_csv, capsys):
        code = main(
            [
                "discover",
                "--lake", str(lake_dir),
                "--query", str(query_csv),
                "--column", "City",
                "-k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "T2" in out and "T3" in out

    def test_discoverer_subset(self, lake_dir, query_csv, capsys):
        code = main(
            [
                "discover",
                "--lake", str(lake_dir),
                "--query", str(query_csv),
                "--discoverers", "josie",
            ]
        )
        assert code == 0
        assert "josie" in capsys.readouterr().out

    def test_missing_lake_rejected(self, query_csv):
        with pytest.raises(SystemExit):
            main(["discover", "--query", str(query_csv)])

    def test_trace_verb_is_the_command_with_the_span_tree(self, lake_dir, query_csv, capsys):
        command = ["discover", "--lake", str(lake_dir), "--query", str(query_csv), "-k", "3"]
        assert main(command) == 0
        plain = capsys.readouterr().out
        assert "trace:" not in plain
        assert main(["trace", "--", *command]) == 0
        traced = capsys.readouterr().out
        assert traced.startswith(plain.rstrip("\n"))
        tree = traced[len(plain.rstrip("\n")):]
        assert "trace:" in tree and "cli.discover" in tree and "discover.score" in tree
        with pytest.raises(SystemExit, match="trace wraps discover or integrate"):
            main(["trace", "lake-info", "--lake", str(lake_dir)])


class TestIntegrate:
    def test_pipeline_integration_writes_csv(self, lake_dir, query_csv, tmp_path, capsys):
        out_file = tmp_path / "integrated.csv"
        code = main(
            [
                "integrate",
                "--lake", str(lake_dir),
                "--query", str(query_csv),
                "--column", "City",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "integration set: query, T2, T3" in out
        written = read_csv(out_file)
        assert written.num_rows == 7  # Figure 3
        assert "OID" in written.columns

    def test_given_integration_set(self, tmp_path, capsys):
        from repro.datalake.fixtures import vaccine_integration_set

        paths = []
        for table in vaccine_integration_set():
            path = tmp_path / f"{table.name}.csv"
            write_csv(table, path)
            paths.append(str(path))
        code = main(["integrate", "--tables", *paths, "--integrator", "alite_fd"])
        assert code == 0
        out = capsys.readouterr().out
        assert "J&J" in out and "FDA" in out

    def test_explain_reads_the_calls_fd_span(self, tmp_path, capsys):
        from repro.datalake.fixtures import vaccine_integration_set

        paths = []
        for table in vaccine_integration_set():
            path = tmp_path / f"{table.name}.csv"
            write_csv(table, path)
            paths.append(str(path))
        assert main(["integrate", "--tables", *paths, "--explain"]) == 0
        out = capsys.readouterr().out
        assert kernel_line(out).startswith("FD kernel: 6 input tuples -> ")
        for phase in ("intern ", "partition ", "closure ", "subsume "):
            assert phase in out
        assert "trace:" not in out  # the tree itself is --trace's
        assert main(["integrate", "--tables", *paths, "--explain", "--trace"]) == 0
        traced = capsys.readouterr().out
        assert kernel_line(traced) == kernel_line(out)
        assert "trace:" in traced and "integrate.fd" in traced

    def test_explain_is_the_same_from_lake_and_store(
        self, lake_dir, query_csv, tmp_path, capsys
    ):
        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        query = ["--query", str(query_csv), "--column", "City", "--explain"]
        assert main(["integrate", "--lake", str(lake_dir), *query]) == 0
        from_lake = capsys.readouterr().out
        assert main(["integrate", "--store", str(store_dir), *query]) == 0
        from_store = capsys.readouterr().out
        assert kernel_line(from_store) == kernel_line(from_lake)
        assert "10 input tuples -> 7 facts" in kernel_line(from_lake)  # Figure 3

    def test_explain_says_when_no_fd_kernel_ran(self, lake_dir, query_csv, capsys):
        assert main(
            ["integrate", "--lake", str(lake_dir), "--query", str(query_csv),
             "--column", "City", "--integrator", "outer_join", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert NO_KERNEL in out and "FD kernel:" not in out

    def test_unknown_integrator_fails(self, tmp_path, lake_dir, query_csv):
        with pytest.raises(KeyError):
            main(
                [
                    "integrate",
                    "--lake", str(lake_dir),
                    "--query", str(query_csv),
                    "--integrator", "bogus",
                ]
            )


class TestAnalyze:
    @pytest.fixture
    def table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(covid_query_table(), path)
        return path

    def test_describe(self, table_csv, capsys):
        assert main(["analyze", "--table", str(table_csv)]) == 0
        out = capsys.readouterr().out
        assert "rows: 3" in out

    def test_correlation_with_options(self, tmp_path, capsys):
        from repro.table import Table

        path = tmp_path / "nums.csv"
        write_csv(Table(["a", "b"], [(1, 2), (2, 4), (3, 6)]), path)
        code = main(
            [
                "analyze",
                "--table", str(path),
                "--app", "correlation",
                "--option", "columns=a,b",
            ]
        )
        assert code == 0
        assert "correlation: 1.0" in capsys.readouterr().out

    def test_bad_option_syntax(self, table_csv):
        with pytest.raises(SystemExit, match="key=value"):
            main(["analyze", "--table", str(table_csv), "--option", "oops"])


class TestReport:
    def test_report_written(self, lake_dir, query_csv, tmp_path, capsys):
        out_file = tmp_path / "run.md"
        code = main(
            [
                "report",
                "--lake", str(lake_dir),
                "--query", str(query_csv),
                "--column", "City",
                "-k", "3",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        content = out_file.read_text(encoding="utf-8")
        assert content.startswith("# DIALITE run: query")
        assert "## Integration" in content
        assert "### describe" in content


class TestDiscoverBatch:
    """The --queries batch mode: one lake index build, many queries."""

    def test_batch_discovers_per_query(self, lake_dir, tmp_path, capsys):
        paths = []
        for i in (1, 2):
            path = tmp_path / f"q{i}.csv"
            write_csv(covid_query_table().with_name(f"q{i}"), path)
            paths.append(str(path))
        code = main(
            [
                "discover",
                "--lake", str(lake_dir),
                "--queries", *paths,
                "--column", "City",
                "-k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query: q1" in out and "query: q2" in out
        assert out.count("T2") >= 2 and out.count("T3") >= 2

    def test_query_and_queries_mutually_exclusive(self, lake_dir, query_csv):
        with pytest.raises(SystemExit, match="not both"):
            main(
                [
                    "discover",
                    "--lake", str(lake_dir),
                    "--query", str(query_csv),
                    "--queries", str(query_csv),
                ]
            )

    def test_requires_some_query(self, lake_dir):
        with pytest.raises(SystemExit, match="--query or --queries"):
            main(["discover", "--lake", str(lake_dir)])


class TestIndexCommands:
    """index build -> info -> warm discover round trip on a tmpdir lake."""

    def test_build_info_discover_round_trip(self, lake_dir, query_csv, tmp_path, capsys):
        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "+2" in out and "fitted indexes" in out

        assert main(["index", "info", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "lake version 1" in out
        assert "T2" in out and "T3" in out
        assert "josie" in out and "lsh_ensemble" in out and "santos" in out
        assert "current" in out

        code = main(
            [
                "discover",
                "--store", str(store_dir),
                "--query", str(query_csv),
                "--column", "City",
                "-k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "T2" in out and "T3" in out

    def test_update_is_incremental(self, lake_dir, tmp_path, capsys):
        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        # Nothing changed: update re-ingests nothing and keeps the indexes.
        assert main(["index", "update", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "=2" in out and "unchanged" in out
        # Add one table: only the delta is ingested, indexes refit.
        from repro.datalake.fixtures import covid_query_table as extra

        write_csv(extra().with_name("T9"), lake_dir / "T9.csv")
        assert main(["index", "update", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "+1" in out and "=2" in out and "fitted indexes" in out

    def test_update_requires_existing_store(self, lake_dir, tmp_path, capsys):
        code = main(
            ["index", "update", "--lake", str(lake_dir), "--store", str(tmp_path / "none")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: no lake store manifest")
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("layout", [[], ["--shards", "2"]])
    def test_second_build_says_nothing_to_fit(self, lake_dir, tmp_path, capsys, layout):
        build = ["index", "build", "--lake", str(lake_dir), "--store", str(tmp_path / "s")]
        assert main(build + layout) == 0
        first = capsys.readouterr().out
        assert "+2" in first and "fitted indexes (josie: " in first
        assert main(build) == 0  # the layout that lives there keeps being built
        second = capsys.readouterr().out.splitlines()
        assert second[0].endswith("+0 ~0 -0 =2")
        assert second[1:] == ["nothing to fit: lake unchanged, persisted indexes are current"]

    def test_store_errors_are_messages_not_tracebacks(self, lake_dir, tmp_path, capsys):
        plain = tmp_path / "plain"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(plain)]) == 0
        capsys.readouterr()
        for argv, message in (
            (
                ["index", "build", "--lake", str(lake_dir), "--store", str(plain),
                 "--shards", "2"],
                "already holds an unsharded lake store",
            ),
            (["store", "shard", "info", "--store", str(plain)],
             "no sharded lake manifest"),
            (["index", "info", "--store", str(tmp_path / "none")],
             "no lake store manifest"),
            (["discover", "--store", str(tmp_path / "none"), "--query", "q.csv"],
             "no lake store manifest"),
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and message in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
        sharded = tmp_path / "sharded"
        build = ["index", "build", "--lake", str(lake_dir), "--store", str(sharded)]
        assert main(build + ["--shards", "2"]) == 0
        capsys.readouterr()
        assert main(build + ["--shards", "3"]) == 2
        assert "already sharded into 2" in capsys.readouterr().err

    def test_info_on_a_sharded_store(self, lake_dir, tmp_path, capsys):
        store = str(tmp_path / "sharded")
        assert main(["index", "build", "--lake", str(lake_dir), "--store", store,
                     "--shards", "2"]) == 0
        capsys.readouterr()
        assert main(["store", "shard", "info", "--store", store]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith(f"sharded lake store: {store}\n")
        assert "lake epoch 1, 2 shards (routing seed 0)" in summary
        assert "2 tables, " in summary
        assert "persisted indexes (union across shards): josie, lsh_ensemble, santos" in summary
        assert "shard-000" in summary and "shard-001" in summary
        # `index info` prints the same summary, then what is on disk.
        assert main(["index", "info", "--store", store]) == 0
        out = capsys.readouterr().out
        assert out.startswith(summary) and "bytes on disk: segments " in out

    def test_integrate_from_store(self, lake_dir, query_csv, tmp_path, capsys):
        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        code = main(
            [
                "integrate",
                "--store", str(store_dir),
                "--query", str(query_csv),
                "--column", "City",
            ]
        )
        assert code == 0
        assert "integration set: query, T2, T3" in capsys.readouterr().out


class TestCandidateEngineCli:
    """The candidate engine's CLI surface: --candidate-budget, discover
    --explain, and the per-discoverer spec lines of ``index info``."""

    def test_discover_explain_reports_retrieval(self, lake_dir, query_csv, capsys):
        code = main(
            [
                "discover",
                "--lake", str(lake_dir),
                "--query", str(query_csv),
                "--column", "City",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "retrieval (candidates before scoring):" in out
        assert "josie:" in out and "tables scored" in out
        assert "via tokens" in out and "via sketch" in out and "via labels" in out
        assert "engine:" in out and "budget=unbudgeted" in out

    def test_candidate_budget_threads_to_engine(self, lake_dir, query_csv, capsys):
        code = main(
            [
                "discover",
                "--lake", str(lake_dir),
                "--query", str(query_csv),
                "--column", "City",
                "--candidate-budget", "1",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "budget=1" in out

    def test_index_info_reports_postings_and_specs(self, lake_dir, tmp_path, capsys):
        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["index", "info", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "persisted indexes (current):" in out
        assert "postings" not in out  # nothing of the engine is persisted
        assert "josie: channels=tokens, budget=unbudgeted" in out
        assert "lsh_ensemble: channels=sketch" in out
        assert "santos: channels=labels" in out

    def test_warm_discover_uses_persisted_postings(self, lake_dir, query_csv, tmp_path, capsys):
        """A warm discover answers what a cold one over the CSVs does."""
        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        answers = []
        for source in (["--store", str(store_dir)], ["--lake", str(lake_dir)]):
            argv = ["discover", *source, "--query", str(query_csv), "--column", "City"]
            assert main(argv + ["--explain"]) == 0
            out = capsys.readouterr().out
            answers.append(out[: out.index("retrieval (candidates before scoring):")])
        assert "josie" in answers[0] and answers[0] == answers[1]


    @pytest.mark.parametrize(
        "layout, line",
        [
            ([], "engine: 2 tables, budget=unbudgeted"),
            (["--shards", "2"], "sharded engine: 2 tables across 2 shards"),
        ],
    )
    def test_explain_engine_line_comes_from_the_index(
        self, lake_dir, query_csv, tmp_path, capsys, layout, line
    ):
        store_dir = tmp_path / "lake.store"
        build = ["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]
        assert main(build + layout) == 0
        capsys.readouterr()
        assert main(
            ["discover", "--store", str(store_dir), "--query", str(query_csv),
             "--column", "City", "--explain"]
        ) == 0
        assert line in capsys.readouterr().out.splitlines()


class TestServe:
    """The serving surface: `repro serve`, `--service` routing, and the
    `index info` live-service beacon."""

    @pytest.fixture
    def served(self, lake_dir, tmp_path):
        import threading
        import time

        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        port_file = tmp_path / "port.txt"
        thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--store", str(store_dir),
                    "--port", "0", "--workers", "2",
                    "--port-file", str(port_file),
                ],
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 10
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert port_file.exists(), "serve never wrote its port file"
        host, port, version = port_file.read_text().split()
        yield store_dir, f"{host}:{port}", thread
        from repro.service import ServiceClient

        try:
            ServiceClient(f"{host}:{port}").shutdown()
        except Exception:
            pass
        thread.join(timeout=10)

    def test_discover_routes_through_service(self, served, query_csv, capsys):
        store_dir, address, _ = served
        capsys.readouterr()
        assert main(
            ["discover", "--service", address, "--query", str(query_csv),
             "--column", "City", "-k", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "T2" in out and "T3" in out and "lake v1" in out
        # A second identical call is served from the shared result cache.
        assert main(
            ["discover", "--service", address, "--query", str(query_csv),
             "--column", "City", "-k", "5"]
        ) == 0
        assert "served from cache" in capsys.readouterr().out

    def test_integrate_routes_through_service(self, served, query_csv, tmp_path, capsys):
        store_dir, address, _ = served
        out_file = tmp_path / "served_integrated.csv"
        capsys.readouterr()
        assert main(
            ["integrate", "--service", address, "--query", str(query_csv),
             "--column", "City", "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "integration set: " in out and out_file.exists()
        restored = read_csv(out_file)
        assert "OID" in restored.columns and restored.num_rows >= 7

    def test_integrate_explain_through_service(self, served, query_csv, capsys):
        """``--service ... --explain`` asks for the reply's tree and prints
        the same kernel line a local run does; a cached reply ran no kernel."""
        store_dir, address, _ = served
        query = ["--query", str(query_csv), "--column", "City", "--explain"]
        capsys.readouterr()
        assert main(["integrate", "--store", str(store_dir), *query]) == 0
        local = capsys.readouterr().out
        assert main(["integrate", "--service", address, *query]) == 0
        miss = capsys.readouterr().out
        assert "served from cache" not in miss
        assert kernel_line(miss) == kernel_line(local)
        assert "trace:" not in miss
        assert main(["integrate", "--service", address, *query]) == 0
        hit = capsys.readouterr().out
        assert "served from cache" in hit
        assert NO_KERNEL in hit and "FD kernel:" not in hit

    def test_index_info_reports_live_service(self, served, capsys):
        store_dir, address, _ = served
        capsys.readouterr()
        assert main(["index", "info", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert f"live service: {address} serving lake v1 (current)" in out

    def test_index_info_without_service(self, lake_dir, tmp_path, capsys):
        store_dir = tmp_path / "cold.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["index", "info", "--store", str(store_dir)]) == 0
        assert "live service: none" in capsys.readouterr().out

    def test_index_info_detects_dead_pid_beacon(self, lake_dir, tmp_path, capsys):
        """ISSUE 8 satellite pin: a beacon left behind by an uncleanly
        exited server is reported as "not serving" via the PID liveness
        check, instead of waiting out the connect/ping timeout."""
        import json
        import subprocess
        import sys
        import time

        store_dir = tmp_path / "stale.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # a real PID that is now certainly dead (reaped here)
        (store_dir / "service.json").write_text(
            json.dumps({"host": "127.0.0.1", "port": 1, "pid": child.pid}),
            encoding="utf-8",
        )
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["index", "info", "--store", str(store_dir)]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert f"process {child.pid} is gone" in out
        assert "live service: none" in out
        assert elapsed < 1.0, "dead-PID beacon must not wait out the ping timeout"

    def test_discover_requires_some_backend(self, query_csv):
        with pytest.raises(SystemExit, match="--lake, --store or --service"):
            main(["discover", "--query", str(query_csv)])

    @pytest.mark.parametrize(
        "verb, flag, advice",
        [
            ("discover", ["--explain"], "run the command locally"),
            ("integrate", ["--discoverers", "josie"], "run the command locally"),
            ("discover", ["--candidate-budget", "5"], "set it on `repro serve`"),
            ("integrate", ["--candidate-budget", "5"], "set it on `repro serve`"),
        ],
    )
    def test_service_rejects_the_flags_it_would_drop(self, query_csv, verb, flag, advice):
        """Refused by name before any connection is made (port 1 is closed)."""
        command = [verb, "--service", "127.0.0.1:1", "--query", str(query_csv), *flag]
        with pytest.raises(SystemExit, match=f"{flag[0]} has no effect with --service") as exit_:
            main(command)
        assert advice in str(exit_.value)


class TestObs:
    """ISSUE 10 surface: `repro obs export` (Prometheus/JSON pull) and
    `repro obs top` (one-shot health/SLO frame) against a live server."""

    @pytest.fixture
    def live_server(self, lake_dir, tmp_path, capsys):
        from repro.datalake.fixtures import covid_query_table
        from repro.service import LakeServer, LakeService

        store_dir = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        service = LakeService(store=store_dir, workers=1)
        server = LakeServer(service, port=0)
        server.start()
        service.discover(covid_query_table(), k=2)  # something to report
        host, port = server.address
        yield f"{host}:{port}"
        server.close()

    def test_export_prometheus_to_stdout(self, live_server, capsys):
        assert main(["obs", "export", live_server]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests counter" in out
        assert "repro_service_requests 1" in out
        assert "repro_service_latency_discover_bucket" in out

    def test_export_json_to_file(self, live_server, tmp_path, capsys):
        import json

        out_file = tmp_path / "metrics.json"
        code = main(
            ["obs", "export", live_server, "--format", "json",
             "--out", str(out_file)]
        )
        assert code == 0
        assert f"written: {out_file}" in capsys.readouterr().out
        document = json.loads(out_file.read_text(encoding="utf-8"))
        assert document["counters"]["service.requests"] >= 1

    def test_top_one_frame(self, live_server, capsys):
        assert main(["obs", "top", live_server, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("status: ok")
        assert "lake v1 epoch 1" in out
        assert "slo availability (target 0.999)" in out
        assert "slo degraded_rate" in out
        assert "burn 60s=0x  600s=0x" in out
        # The one discover the fixture served is held, as its wire bytes.
        assert "result cache: 1 entries, " in out and " bytes" in out


class TestStoreFormatBoundary:
    """A store of any format generation but the one this code writes, or
    one whose manifest or segment is damaged, is an ``error:`` line and
    exit 2, never a traceback.  There is no ``store migrate`` verb."""

    @pytest.fixture(params=["plain", "sharded"])
    def built(self, request, lake_dir, tmp_path, capsys):
        store = tmp_path / "lake.store"
        build = ["index", "build", "--lake", str(lake_dir), "--store", str(store)]
        assert main(build + (["--shards", "2"] if request.param == "sharded" else [])) == 0
        capsys.readouterr()
        return store, "manifest.json" if request.param == "plain" else "lake.json"

    @staticmethod
    def refused(argv, capsys) -> str:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("version", OTHER_FORMAT_VERSIONS)
    def test_any_other_format_version(self, built, version, capsys):
        import json

        store, name = built
        manifest = json.loads((store / name).read_text(encoding="utf-8"))
        if version is None:
            del manifest["format_version"]
        else:
            manifest["format_version"] = version
        (store / name).write_text(json.dumps(manifest), encoding="utf-8")
        err = self.refused(["index", "info", "--store", str(store)], capsys)
        found = "no format_version" if version is None else f"format_version {version},"
        assert found in err and READS_ONLY in err

    def test_a_format_1_store(self, built, capsys):
        """What the format-1 writer left, plain or sharded: ``index
        info`` and ``serve`` refuse it by its version and exit 2."""
        store, name = built
        as_format_1(store)
        for argv in (
            ["index", "info", "--store", str(store)],
            ["serve", "--store", str(store), "--port", "0"],
        ):
            err = self.refused(argv, capsys)
            assert f"{store / name} holds format_version 1," in err
            assert "index build" in err and "sketch block" not in err

    def test_a_format_2_store(self, built, query_csv, capsys):
        """What the format-2 writer left, a posting artifact included, is
        refused by its version with the rebuild hint, and exits 2."""
        store, name = built
        as_format_2(store)
        for argv in (
            ["index", "info", "--store", str(store)],
            ["discover", "--store", str(store), "--query", str(query_csv), "--column", "City"],
        ):
            err = self.refused(argv, capsys)
            assert f"{store / name} holds format_version 2," in err
            assert "index build" in err

    def test_a_truncated_manifest(self, built, capsys):
        store, name = built
        text = (store / name).read_text(encoding="utf-8")
        (store / name).write_text(text[: len(text) // 2], encoding="utf-8")
        err = self.refused(["index", "info", "--store", str(store)], capsys)
        assert f"{store / name} is not valid JSON" in err

    def test_a_truncated_segment(self, built, query_csv, capsys):
        store, _ = built
        for segment in store.rglob("*.seg.bin"):
            segment.write_bytes(segment.read_bytes()[:-3])
        argv = ["integrate", "--store", str(store), "--query", str(query_csv),
                "--column", "City"]
        assert "error: segment " in self.refused(argv, capsys)

    def test_a_pre_v2_store(self, lake_dir, query_csv, tmp_path, capsys):
        store = tmp_path / "lake.store"
        assert main(["index", "build", "--lake", str(lake_dir), "--store", str(store)]) == 0
        capsys.readouterr()
        downgrade_to_v1(store)
        for argv in (
            ["index", "info", "--store", str(store)],
            ["discover", "--store", str(store), "--query", str(query_csv)],
        ):
            err = self.refused(argv, capsys)
            assert ".seg.jsonl" in err and "index build" in err

    def test_store_migrate_is_not_a_verb(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["store", "migrate", "--store", str(tmp_path)])
        assert exited.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err
