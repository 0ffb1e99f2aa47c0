"""tools/rss_tree.py: per-process memory of a served tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "rss_tree.py"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads /proc"
)


def run(pid: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(pid)], capture_output=True, text=True, timeout=60
    )


def test_reports_this_process_and_its_children():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        done = run(os.getpid())
    finally:
        child.kill()
        child.wait()
    assert done.returncode == 0, done.stderr
    header, *rows, total = done.stdout.splitlines()
    assert header.split() == ["pid", "name", "VmHWM", "MiB", "RssAnon", "MiB", "RssFile", "MiB"]
    pids = [int(row.split()[0]) for row in rows]
    # The root comes first; the sleeper and the tool itself are children.
    assert pids[0] == os.getpid() and child.pid in pids and len(pids) >= 3
    values = [[float(v) for v in row.split()[-3:]] for row in rows]
    assert all(hwm > 0 and anon > 0 for hwm, anon, _ in values)
    assert total.split()[:3] == ["sum", str(len(rows)), "processes"]
    sums = [float(v) for v in total.split()[-3:]]
    for column, reported in enumerate(sums):
        assert reported == pytest.approx(sum(v[column] for v in values), abs=0.05 * len(rows))


def test_an_unknown_pid_exits_2():
    done = run(2**22 + 1)  # above the kernel's pid_max ceiling
    assert done.returncode == 2 and "no process" in done.stderr
