#!/usr/bin/env python
"""Memory of a process tree, one line per process.

    python tools/rss_tree.py PID [--maps N]

For PID and every process descended from it (a ``repro serve`` server
and its forked shard workers) prints the peak resident set (VmHWM) and
the current anonymous and file-backed resident sets (RssAnon, RssFile)
from ``/proc/<pid>/status``, in MiB, then their sum over the tree.
``--maps N`` then lists, per process, the N files whose mappings hold
the most resident memory (read from ``/proc/<pid>/smaps``, a file's
mappings summed): what a process's RssFile is made of, e.g. which
extension modules an import pulled in.

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


def file_mappings(smaps: str) -> dict[str, int]:
    """Resident kB per mapped file in a ``/proc/<pid>/smaps`` text, the
    file's mappings summed; anonymous and pseudo mappings (``[heap]``)
    are left out."""
    resident: dict[str, int] = {}
    path = None
    for line in smaps.splitlines():
        head = line.partition(" ")[0]
        if "-" in head and not head.endswith(":"):  # a mapping's header line
            fields = line.split(None, 5)
            path = fields[5] if len(fields) == 6 and fields[5].startswith("/") else None
        elif path is not None and head == "Rss:":
            resident[path] = resident.get(path, 0) + int(line.split()[1])
    return resident


def largest_mappings(pid: int, count: int) -> list[tuple[float, str]]:
    """*pid*'s *count* files with the most resident memory, ``(MiB,
    path)`` largest first; empty when its smaps cannot be read."""
    try:
        smaps = (PROC / str(pid) / "smaps").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    ranked = sorted(file_mappings(smaps).items(), key=lambda item: (-item[1], item[0]))
    return [(kib / 1024, path) for path, kib in ranked[:count]]


def render_mappings(rows: list[dict], count: int) -> str:
    lines = [f"largest file-backed mappings (Rss MiB), top {count} per process"]
    for row in rows:
        lines.append(f"{row['pid']:>8}  {row['name']}")
        lines.extend(
            f"{'':>8}  {size:>8.1f}  {path}" for size, path in largest_mappings(row["pid"], count)
        )
    return "\n".join(lines)


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
    parser.add_argument(
        "--maps", type=int, default=0, metavar="N",
        help="also list each process's N largest file-backed mappings",
    )
    args = parser.parse_args(argv)
    if not (PROC / str(args.pid)).is_dir():
        print(f"error: no process {args.pid}", file=sys.stderr)
        return 2
    rows = report(args.pid)
    print(render(rows))
    if args.maps > 0:
        print()
        print(render_mappings(rows, args.maps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
