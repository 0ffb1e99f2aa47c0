"""Interned FD kernel vs the legacy object kernel (ISSUE 4 acceptance).

The claim under test: on an ~8 tables x 500 rows integration set, the
interned partition-first :class:`AliteFD` (integer-coded tuples, masked
int-vector predicates, packed-int postings, per-component closure) is
**>= 3x faster** than :class:`LegacyAliteFD` -- the pre-PR-4 object-level
kernel kept verbatim as the baseline -- while producing **identical**
output: same cells, same null kinds (``±``/``⊥``), same provenance sets,
same row order.

Two entry points:

* ``python benchmarks/bench_fd_kernel.py [--check] [--json out.json]``
  runs the full-scale gate (best-of-``--repeats`` timings);
* ``python benchmarks/bench_fd_kernel.py --smoke --json out.json`` runs a
  small workload: every correctness assertion, timings recorded to JSON,
  but no hard speed gate (at smoke scale the measurement is dominated by
  jitter) -- this is what ``make ci`` exercises via ``make fd-smoke``.

The same identity assertions are pinned distribution-free (randomized
inputs, incremental prefixes) by
``tests/property/test_fd_kernel_equivalence.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datalake.synth import build_integration_set  # noqa: E402
from repro.integration import AliteFD, LegacyAliteFD  # noqa: E402
from repro.integration.intern import fd_stats_from_span  # noqa: E402
from repro.integration.tuples import cell_key  # noqa: E402
from repro.obs.trace import Tracer, activate  # noqa: E402
from repro.table.values import is_missing, is_null  # noqa: E402

#: The acceptance gate: interned partition-first kernel over object kernel.
#: Raised from 3.0 with the segment-v2 PR's kernel work (the provenance
#: fold size precheck and the one-sided-mask pair skip); measured ~5.5x.
SPEEDUP_GATE = 4.5

FULL = dict(num_tables=8, rows_per_table=500, num_attributes=10,
            attributes_per_table=4, key_pool_size=1000, null_rate=0.08, seed=7)
SMOKE = dict(num_tables=4, rows_per_table=80, num_attributes=8,
             attributes_per_table=3, key_pool_size=160, null_rate=0.08, seed=7)


def null_kind_grid(result) -> list[tuple]:
    """Per-cell (is-null, is-missing) so ``±`` vs ``⊥`` differences count."""
    return [tuple((is_null(c), is_missing(c)) for c in row) for row in result.rows]


def assert_identical(reference, candidate, label: str) -> None:
    """Cell-, provenance-, null-kind- and row-order-identical outputs.

    Cells are compared by ``==`` *and* by normalized key: Python's
    ``True == 1`` / ``1 == 1.0`` would otherwise let exactly the class of
    bool/int confusion the kernel's discipline guards against slip through
    an ``==``-only gate."""
    assert tuple(candidate.columns) == tuple(reference.columns), f"{label}: header differs"
    assert list(candidate.rows) == list(reference.rows), f"{label}: cells/row order differ"
    assert [tuple(map(cell_key, r)) for r in candidate.rows] == [
        tuple(map(cell_key, r)) for r in reference.rows
    ], f"{label}: cell keys differ (bool/int or num/str confusion)"
    assert null_kind_grid(candidate) == null_kind_grid(reference), f"{label}: null kinds differ"
    assert candidate.provenance == reference.provenance, f"{label}: provenance differs"


def timed(integrator, tables, repeats: int):
    """Best-of-*repeats* wall time.  No run can warm the next: neither
    integrator keeps anything between calls (an ``AliteFD`` call interns
    into its own interner)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = integrator.integrate(tables)
        best = min(best, time.perf_counter() - start)
    return best, result


def run(smoke: bool, check: bool, repeats: int, json_path: str | None) -> int:
    scale = SMOKE if smoke else FULL
    tables = build_integration_set(**scale)
    total_rows = sum(t.num_rows for t in tables)
    print(
        f"FD kernel benchmark ({'smoke' if smoke else 'full'}): "
        f"{scale['num_tables']} tables x {scale['rows_per_table']} rows "
        f"({total_rows} input tuples)"
    )

    legacy_seconds, legacy = timed(LegacyAliteFD(), tables, repeats)
    interned_seconds, interned = timed(AliteFD(), tables, repeats)
    # The kernel accounting is the call's ``integrate.fd`` span: one extra
    # run under a local tracer (outside the timed ones) fills it in.
    tracer = Tracer()
    with activate(tracer):
        AliteFD().integrate(tables)
    stats = fd_stats_from_span(tracer.root)

    assert_identical(legacy, interned, "interned AliteFD vs legacy")
    print(
        f"  output identical across kernels: {interned.num_rows} facts, "
        f"{stats['components']} components, "
        f"domain {stats['domain']} values"
    )

    speedup = legacy_seconds / max(interned_seconds, 1e-9)
    print(f"  legacy object kernel : {legacy_seconds:9.3f}s")
    print(f"  interned AliteFD     : {interned_seconds:9.3f}s  ({speedup:.2f}x)")

    document = {
        "benchmark": "fd_kernel",
        "mode": "smoke" if smoke else "full",
        "scale": scale,
        "input_tuples": total_rows,
        "output_facts": interned.num_rows,
        "kernel_stats": stats,
        "legacy_seconds": round(legacy_seconds, 6),
        "interned_seconds": round(interned_seconds, 6),
        "speedup": round(speedup, 3),
        "gate": SPEEDUP_GATE if not smoke else None,
        "identical_output": True,  # the asserts above would have raised
    }
    if json_path:
        path = Path(json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2), encoding="utf-8")
        print(f"  json: {path}")

    if check and not smoke:
        if speedup < SPEEDUP_GATE:
            print(
                f"GATE FAILED: interned kernel {speedup:.2f}x < {SPEEDUP_GATE}x "
                f"over the legacy object kernel"
            )
            return 1
        print(f"gate ok: {speedup:.2f}x >= {SPEEDUP_GATE}x")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workload: correctness + JSON, no speed gate")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless interned >= {SPEEDUP_GATE}x over legacy")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N timing (default: 3 full, 1 smoke)")
    parser.add_argument("--json", default=None, help="write the JSON document here")
    args = parser.parse_args()
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    return run(args.smoke, args.check, repeats, args.json)


if __name__ == "__main__":
    sys.exit(main())
