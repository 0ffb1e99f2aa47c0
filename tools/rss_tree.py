#!/usr/bin/env python
"""Memory of a process tree, one line per process.

    python tools/rss_tree.py PID

For PID and every process descended from it (a ``repro serve`` server
and its forked shard workers) prints the peak resident set (VmHWM) and
the current anonymous and file-backed resident sets (RssAnon, RssFile)
from ``/proc/<pid>/status``, in MiB, then their sum over the tree.

Two readings matter when comparing trees.  A forked worker's RssAnon
counts the pages it still shares copy-on-write with its parent, so the
sum overstates what the tree costs the host.  And VmHWM is each
process's own peak, reached at different moments, so its sum bounds the
tree's peak from above.  Linux only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

PROC = Path("/proc")
FIELDS = ("VmHWM", "RssAnon", "RssFile")


def status(pid: int) -> dict[str, str]:
    """The ``key: value`` lines of ``/proc/<pid>/status``."""
    lines = (PROC / str(pid) / "status").read_text(encoding="utf-8").splitlines()
    return dict(line.split(":\t", 1) for line in lines if ":\t" in line)


def parents() -> dict[int, int]:
    """``{pid: parent pid}`` of every live process."""
    table: dict[int, int] = {}
    for entry in PROC.iterdir():
        if entry.name.isdigit():
            try:
                table[int(entry.name)] = int(status(int(entry.name))["PPid"])
            except (OSError, KeyError, ValueError):
                continue  # exited meanwhile, or not readable
    return table


def tree(root: int) -> list[int]:
    """*root* and its descendants, parents before children."""
    children: dict[int, list[int]] = {}
    for pid, parent in parents().items():
        children.setdefault(parent, []).append(pid)
    order, stack = [], [root]
    while stack:
        pid = stack.pop()
        order.append(pid)
        stack.extend(sorted(children.get(pid, ()), reverse=True))
    return order


def mib(value: str) -> float:
    """A ``status`` size (``"1234 kB"``) in MiB."""
    return int(value.split()[0]) / 1024


def report(root: int) -> list[dict]:
    """One row per process of *root*'s tree: pid, name and the FIELDS."""
    rows = []
    for pid in tree(root):
        try:
            fields = status(pid)
        except OSError:
            continue  # exited between the scan and the read
        row = {"pid": pid, "name": fields.get("Name", "?")}
        row.update({field: mib(fields.get(field, "0 kB")) for field in FIELDS})
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'pid':>8}  {'name':<16}" + "".join(f"{f + ' MiB':>12}" for f in FIELDS)]
    for row in rows:
        lines.append(
            f"{row['pid']:>8}  {row['name']:<16}"
            + "".join(f"{row[f]:>12.1f}" for f in FIELDS)
        )
    lines.append(
        f"{'sum':>8}  {f'{len(rows)} processes':<16}"
        + "".join(f"{sum(r[f] for r in rows):>12.1f}" for f in FIELDS)
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pid", type=int, help="the root of the tree")
    args = parser.parse_args(argv)
    if not (PROC / str(args.pid)).is_dir():
        print(f"error: no process {args.pid}", file=sys.stderr)
        return 2
    print(render(report(args.pid)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
