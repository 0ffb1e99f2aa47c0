#!/usr/bin/env python
"""CI guard: discoverer query paths must retrieve through the engine.

The sublinear-query-path refactor (ISSUE 3) moved every discoverer onto
the two-phase contract: retrieval via the shared
:class:`repro.candidates.CandidateEngine`, scoring over the retrieved
candidate set only.  This check fails the build if code in
``repro.discovery`` regresses to iterating the raw lake mapping --
``self._lake.items()``, ``for name in self._lake``,
``self._lake.values()`` and friends -- which would silently restore
O(lake) per-query cost.

Every function and method in the package is checked, so moving a lake
walk into a helper does not evade the guard.  The only exemptions are
the *fit-time* lifecycle methods, where a full pass over the lake is the
point (index construction is the offline step): ``fit``,
``_build_index``, ``rebind_lake``, ``bind_engine``, ``__getstate__``,
and the KB synthesis that runs inside SANTOS's fit.

Subscript access (``self._lake[name]``) stays legal everywhere: scoring
a retrieved candidate's cells is exactly what the candidate set
licenses.

The sharded-lake layer (ISSUE 8) is held to the same bar: the
scatter-gather *query* path (``ShardedLakeIndex.search`` and the worker
round functions) must never walk a lake mapping -- each shard retrieves
through its own engine and the reducer merges.  Its exemptions are the
write-side lifecycle where routing or profiling a full lake is the
point; ``build`` / ``_hydrate`` are no longer among them -- a shard's
index is fitted where it lives (``open_shard_index``, through the shard
store's ``open_index``), and the driver only routes.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Fit-time / lifecycle functions where a full lake pass is legitimate,
#: in discoverer code.
FIT_TIME = {
    "fit",
    "_build_index",
    "rebind_lake",
    "bind_engine",
    "__getstate__",
    "synthesize_from_tables",  # KB minting, runs inside SANTOS's fit
    "evaluate_discoverer",     # offline benchmark metric, fits then searches
}

#: Write-side lifecycle in repro.shard where routing or profiling the
#: whole lake is the operation itself (never on the query path).
SHARD_FIT_TIME = {
    "ingest",             # routes every table to its home shard
    "rebalance",          # full rewrite under a new routing rule
    "_compute_fit_state",  # lake-global KB/IDF products, computed once
}

CHECKED_DIRS = (
    (SRC / "discovery", FIT_TIME),
    (SRC / "shard", SHARD_FIT_TIME),
)

#: Names that refer to the lake mapping inside discoverer code.
LAKE_NAMES = {"lake", "_lake"}


def _is_lake_expr(node: ast.AST) -> bool:
    """``lake`` / ``self._lake`` (any attribute chain ending in a lake name)."""
    if isinstance(node, ast.Name):
        return node.id in LAKE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in LAKE_NAMES
    return False


def check_file(path: Path, exemptions: set[str]) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    violations = []
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in exemptions
        ):
            # Nested defs are reached through ast.walk on the module, so
            # a lake walk inside a closure is still caught (attributed to
            # the innermost function).
            violations.extend(_violations_in_own_body(node, path))
    return violations


def _violations_in_own_body(function: ast.FunctionDef, path: Path) -> list[str]:
    """Violations in *function* excluding its nested defs (each nested
    def is visited separately, under its own exemption decision)."""

    class Collector(ast.NodeVisitor):
        def __init__(self) -> None:
            self.nodes: list[ast.AST] = []

        def generic_visit(self, node: ast.AST) -> None:
            if node is not function and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return  # nested def: handled on its own walk
            self.nodes.append(node)
            super().generic_visit(node)

    collector = Collector()
    collector.visit(function)
    found = []

    def flag(node: ast.AST, what: str) -> None:
        found.append(
            f"{path.name}:{node.lineno}: {function.name}() {what} -- "
            f"query paths must go through the CandidateEngine"
        )

    for node in collector.nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "values", "keys")
            and _is_lake_expr(node.func.value)
        ):
            flag(node, f"calls lake.{node.func.attr}()")
        if isinstance(node, (ast.For, ast.comprehension)):
            if _is_lake_expr(node.iter):
                flag(node if isinstance(node, ast.For) else node.iter, "iterates the lake mapping")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set", "sorted", "tuple")
            and node.args
            and _is_lake_expr(node.args[0])
        ):
            flag(node, f"materializes the lake via {node.func.id}()")
    return found


def main() -> int:
    violations: list[str] = []
    checked = 0
    for directory, exemptions in CHECKED_DIRS:
        for path in sorted(directory.glob("*.py")):
            violations.extend(check_file(path, exemptions))
            checked += 1
    if violations:
        print("full-lake-scan guard FAILED:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    packages = " + ".join(f"repro.{d.name}" for d, _ in CHECKED_DIRS)
    print(
        f"full-lake-scan guard ok: no non-fit-time code in {packages} "
        f"iterates the raw lake ({checked} modules checked)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
