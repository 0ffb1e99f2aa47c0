#!/usr/bin/env python
"""CI guard: observability must stay out of per-row/per-cell loops.

The tracing design (``repro.obs``) keeps hot kernels measurable without
slowing them down: phase totals are accumulated with plain
``perf_counter()`` arithmetic inside the loop and attached to the span
tree *once* afterwards via ``Tracer.record``, and metrics are observed
once per probe/solve, never per entry.  A ``span(...)`` (or
``record(...)``) call lexically inside a ``for``/``while`` body in a hot
module would allocate a span object and take the tracer lock on every
iteration -- exactly the overhead the no-op recorder exists to avoid.

This check fails the build if any call named ``span`` or ``record``
(bare or attribute form: ``trace.span``, ``tracer.span``,
``tracer.record``) appears inside a loop in the hot modules below.
Calls before/after loops, and in cold modules (service, pipeline,
discovery, aligner), stay legal: one span per request stage is the
intended grain.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose loops run per tuple, per cell or per posting entry --
#: plus the telemetry plane itself (exporter flush / recorder ring / SLO
#: windows), which must never open spans in its own loops: telemetry
#: observing telemetry is exactly the recursion the discipline forbids.
HOT_MODULES = (
    "integration/intern.py",
    "candidates/postings.py",
    "store/codec.py",
    "obs/export.py",
    "obs/recorder.py",
    "obs/slo.py",
)

_FLAGGED = {"span", "record"}


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    violations: list[str] = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, ast.Call) and _call_name(node) in _FLAGGED and in_loop:
            violations.append(
                f"{path.relative_to(SRC)}:{node.lineno}: "
                f"{_call_name(node)}(...) inside a loop -- accumulate with "
                f"perf_counter() and attach once via Tracer.record after the loop"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, (ast.For, ast.While)))

    visit(tree, False)
    return violations


def main() -> int:
    violations: list[str] = []
    for name in HOT_MODULES:
        violations.extend(check_file(SRC / name))
    if violations:
        print("obs span-placement guard FAILED:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(
        f"obs span-placement guard ok: no span/record allocation inside "
        f"loops across {len(HOT_MODULES)} hot modules"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
