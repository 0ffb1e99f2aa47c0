#!/usr/bin/env python
"""Which functions of ``src/repro`` does anything reach (ROADMAP item 7)?

    python tools/census.py [--imports]    # --imports: only the unused-import pass (exit 1 on a finding)

Runs the e2e workloads, then the production-shaped runs (``make ci`` smokes, examples, paper
benches), then tier-1 and the lint tools, each under a ``sys.setprofile`` hook a generated
``sitecustomize`` installs in every process, forked or spawned; a function is filed under the
first stage that called it.  Takes minutes; no gate: ``make ci`` never runs it, and ``make lint``
runs only the ``--imports`` pass (where pyflakes is not installed).
"""
import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOOK = """import os, sys, threading
_seen, _src, _out = set(), os.environ["CENSUS_SRC"], open(os.environ["CENSUS_OUT"], "a", buffering=1)
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_src):
            _out.write(f"{code.co_filename}:{code.co_firstlineno}\\n")
sys.setprofile(_hook); threading.setprofile(_hook)
"""
STAGES = {  # in order; each value is the shell script that is the stage's traffic
    "e2e": "python benchmarks/e2e/run.py --smoke",
    "production-shaped runs": "make bench-smoke store-smoke candidates-smoke fd-smoke serve-smoke"
    " obs-smoke shard-smoke chaos-smoke; for f in examples/*.py; do python $f; done;"
    " python -m pytest -q -p no:cacheprovider --benchmark-only benchmarks/bench_*.py",
    "tests only": "python -m pytest -q -p no:cacheprovider; for f in tools/check_*.py; do python $f; done",
}


def functions(node: ast.AST, file: Path, prefix: str = ""):
    """``("file:first line of the code object", "file:qualname")`` per def under *node*."""
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        name = prefix + child.name if named else prefix
        if named and not isinstance(child, ast.ClassDef):
            first = min(n.lineno for n in [child, *child.decorator_list])
            yield f"{file}:{first}", f"{file.relative_to(ROOT)}:{name}"
        yield from functions(child, file, name + "." if named else prefix)


def unused_imports():
    """Names a file imports and never mentions; ``__all__`` and string annotations are mentions."""
    for top in ("src", "tests", "benchmarks", "examples", "tools"):
        for file in sorted(f for f in (ROOT / top).rglob("*.py") if f.name != "__init__.py"):
            text = file.read_text(encoding="utf-8")
            nodes, lines = list(ast.walk(ast.parse(text))), text.splitlines()
            strings = (n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str))
            mentioned = {n.id for n in nodes if isinstance(n, ast.Name)}
            mentioned.update(re.findall(r"\w+", " ".join(strings)), ["*", "annotations"])
            for n in nodes:
                if isinstance(n, (ast.Import, ast.ImportFrom)) and "noqa" not in lines[n.lineno - 1]:
                    for bound in ((a.asname or a.name).split(".")[0] for a in n.names):
                        if bound not in mentioned:
                            yield f"{file.relative_to(ROOT)}:{n.lineno}: unused import {bound}"


def main() -> int:
    findings = list(unused_imports())
    print("\n".join(findings) or "no unused imports")
    if "--imports" in sys.argv[1:]:
        return 1 if findings else 0
    inventory, reached = {}, {}
    for file in sorted((ROOT / "src" / "repro").rglob("*.py")):
        inventory.update(functions(ast.parse(file.read_text(encoding="utf-8")), file))
    with tempfile.TemporaryDirectory(prefix="census_") as scratch:
        Path(scratch, "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        out = Path(scratch, "calls.txt")
        env = dict(os.environ, CENSUS_SRC=str(ROOT / "src"), CENSUS_OUT=str(out),
                   PYTHONPATH=os.pathsep.join(["src", scratch]))
        for stage, script in STAGES.items():
            out.write_text("")
            subprocess.run(script, shell=True, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            for key in out.read_text().splitlines():
                reached.setdefault(key, stage)
    for stage in [*STAGES, "nothing"]:
        names = sorted(name for key, name in inventory.items() if reached.get(key, "nothing") == stage)
        print(f"\n== reached by {stage}: {len(names)} of {len(inventory)} functions", *names, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
