#!/usr/bin/env python
"""CI guard: FD hot-path modules must not rebuild per-cell keys the slow way.

:func:`repro.integration.tuples.cell_key` exists precisely so hot paths
(complementation closure, subsumption, partitioning, join keying) can key
single cells without the tuple-of-one round trip through
``normalized_key((cell,))[0]`` -- each such call allocates a one-tuple, a
tagged tuple and an outer tuple, then immediately unwraps it, and it sits
inside per-cell loops.  PR 4 removed the last offenders
(``connected_components``, the outer-join ``key_of``); this check fails the
build if the pattern regresses anywhere in the integration package's hot
modules.

Two patterns are flagged, in hot-path modules only:

* any call ``normalized_key(<tuple literal>)`` -- keying a synthesized
  tuple of cells instead of an existing vector is the round-trip shape
  regardless of the literal's length;
* any subscript ``normalized_key(...)[...]`` -- unwrapping a freshly built
  whole-vector key to get at one element.

Whole-vector uses (``normalized_key(work.cells)`` as a dict key or sort
component, once per tuple) stay legal everywhere: that is the function's
job.  ``nested_loop.py`` and ``definition.py`` are exempt -- they are the
deliberately object-level baselines -- as are ``tuples.py`` (the
definition site) and ``explain.py``/``base.py`` (not hot).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

INTEGRATION_DIR = (
    Path(__file__).resolve().parent.parent / "src" / "repro" / "integration"
)

#: The modules whose per-cell loops are the FD hot paths.
HOT_MODULES = (
    "alite.py",
    "intern.py",
    "outerjoin.py",
    "subsume.py",
)


def _is_normalized_key_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "normalized_key"
    )


def check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    violations = []
    for node in ast.walk(tree):
        if _is_normalized_key_call(node) and node.args and isinstance(
            node.args[0], ast.Tuple
        ):
            violations.append(
                f"{path.name}:{node.lineno}: normalized_key(<tuple literal>) -- "
                f"key single cells with cell_key() on FD hot paths"
            )
        if isinstance(node, ast.Subscript) and _is_normalized_key_call(node.value):
            violations.append(
                f"{path.name}:{node.lineno}: normalized_key(...)[...] -- "
                f"the per-cell unwrap round trip; use cell_key() instead"
            )
    return violations


def main() -> int:
    violations: list[str] = []
    for name in HOT_MODULES:
        violations.extend(check_file(INTEGRATION_DIR / name))
    if violations:
        print("FD hot-path guard FAILED:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(
        f"FD hot-path guard ok: no per-cell normalized_key round trips in "
        f"{len(HOT_MODULES)} hot integration modules"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
