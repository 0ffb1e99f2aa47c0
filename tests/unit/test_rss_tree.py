"""tools/rss_tree.py: per-process memory of a served tree."""

from __future__ import annotations

import importlib.util
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


SMAPS = """\
55e877465000-55e877467000 r--p 00000000 fe:00 285692                     /usr/bin/python3
Size:                  8 kB
Rss:                   8 kB
Pss:                   4 kB
VmFlags: rd mr mw me dw sd
55e877467000-55e877470000 r-xp 00002000 fe:00 285692                     /usr/bin/python3
Size:                 36 kB
Rss:                  36 kB
VmFlags: rd ex mr mw me dw sd
55e878000000-55e878100000 rw-p 00000000 00:00 0                          [heap]
Size:               1024 kB
Rss:                1000 kB
7f0000000000-7f0000100000 r--p 00000000 fe:00 4242                       /usr/lib/python3/_generator.cpython-311.so
Size:               1024 kB
Rss:                2048 kB
7f0000100000-7f0000200000 rw-p 00000000 00:00 0
Rss:                 512 kB
7f0000200000-7f0000201000 r--p 00000000 fe:00 77                         /tmp/a file (deleted)
Rss:                   4 kB
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("rss_tree", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_file_mappings_sum_a_files_mappings_and_skip_anonymous_ones():
    assert load_tool().file_mappings(SMAPS) == {
        "/usr/bin/python3": 44,
        "/usr/lib/python3/_generator.cpython-311.so": 2048,
        "/tmp/a file (deleted)": 4,
    }


def test_largest_mappings_rank_by_resident_size(tmp_path, monkeypatch):
    tool = load_tool()
    (tmp_path / "7").mkdir()
    (tmp_path / "7" / "smaps").write_text(SMAPS, encoding="utf-8")
    monkeypatch.setattr(tool, "PROC", tmp_path)
    assert tool.largest_mappings(7, 2) == [
        (2.0, "/usr/lib/python3/_generator.cpython-311.so"),
        (44 / 1024, "/usr/bin/python3"),
    ]
    assert tool.largest_mappings(8, 2) == []  # no such process


def test_maps_lists_each_processs_largest_files():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(os.getpid()), "--maps", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    _table, mappings = done.stdout.split("\n\n")
    header, own, *files = mappings.splitlines()
    assert header.startswith("largest file-backed mappings (Rss MiB), top 2")
    assert int(own.split()[0]) == os.getpid()
    # This interpreter maps at least its own binary.  A file line is
    # indented ten spaces, a process line (right-aligned pid) fewer.
    mine = [line.split(None, 1) for line in files[:2] if line.startswith(" " * 10)]
    assert mine and all(float(size) > 0 and path.startswith("/") for size, path in mine)
