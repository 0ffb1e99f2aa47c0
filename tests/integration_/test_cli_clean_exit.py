"""A sharded CLI run exits without a word on stderr.

An interpreter exit right behind a worker pool shut down *without*
waiting races CPython's executor-manager thread: ``python -m repro index
build --shards 4`` then ends with ``Exception ignored in: <module
'threading'> ... OSError: [Errno 9] Bad file descriptor`` in one run in
five to fifteen (exit status still 0).  ``ShardedLakeIndex.close()``
waits for its idle workers, so each command is run here once in its own
interpreter and must say nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datalake import DataLake
from repro.datalake.fixtures import (
    covid_joinable_table,
    covid_query_table,
    covid_unionable_table,
)
from repro.table.io import write_csv

ROOT = Path(__file__).resolve().parents[2]


def repro_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("shards", ["2", "4"])
def test_sharded_build_and_discover_leave_stderr_empty(tmp_path, shards):
    DataLake([covid_unionable_table(), covid_joinable_table()]).save_to(tmp_path / "lake")
    write_csv(covid_query_table().with_name("q1"), tmp_path / "q1.csv")
    store = str(tmp_path / "lake.store")
    built = repro_cli(
        "index", "build", "--lake", str(tmp_path / "lake"), "--store", store,
        "--shards", shards,
    )
    assert (built.returncode, built.stderr) == (0, "")
    found = repro_cli(
        "discover", "--store", store, "--query", str(tmp_path / "q1.csv"),
        "--column", "City", "-k", "3",
    )
    assert (found.returncode, found.stderr) == (0, "")
    assert "T3" in found.stdout
