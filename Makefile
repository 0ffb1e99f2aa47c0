# Developer/CI entry points for the DIALITE reproduction.
#
#   make test         tier-1 test suite (the driver's gate)
#   make lint         static checks (pyflakes if installed, else compileall + the
#                     unused-import pass of tools/census.py) + the obs
#                     span-placement guard
#   make bench-smoke  table-engine micro-benchmark, smoke mode (fast, JSON out)
#   make bench        full table-engine benchmark incl. the >= 2x acceptance check
#   make bench-store  store warm-start benchmark @1k tables incl. the >= 5x check
#   make bench-candidates  candidate-engine fan-out @2k tables incl. the >= 6x check
#   make candidates-smoke  same suite @300 tables, relaxed gate (runs in CI)
#   make bench-fd     interned FD kernel vs legacy object kernel @8x500 incl. the >= 4.5x check
#   make fd-smoke     same suite, small scale: identity asserts + JSON, no speed gate (runs in CI)
#   make bench-service  serving layer @400 tables: warm cached+shared >= 3x sequential cold calls
#   make serve-smoke  service smoke: TCP client session (discover/cache/ingest/stats) +
#                     byte-identity + zero-staleness asserts, no speed gate (runs in CI)
#   make obs-smoke    observability overhead smoke: disabled tracing must cost
#                     <= 8% vs a stubbed-no-op baseline on a warm workload (runs in CI)
#   make bench-shard  sharded scatter-gather @20k tables x 4 shards: discover p95
#                     >= 2.5x vs 1 shard (the whole lake behind one worker; wall
#                     p95 with >= 4 cores, critical-path CPU p95 on starved
#                     hosts), identical top-k
#   make shard-smoke  same suite, small scale: identity + one-shard-rewrite asserts
#                     through the shard workers, a service ingest keeps every
#                     worker process (no respawn), no speed gate (runs in CI)
#   make bench-chaos  fault-tolerance chaos suite: concurrent discover/ingest
#                     under injected worker kills + connection drops; zero
#                     errors, zero wrong/stale answers vs a per-version
#                     oracle, non-degraded p95 <= 2x the no-fault baseline
#   make chaos-smoke  same suite, small scale + same gates (runs in CI)
#   make bench-e2e    the end-to-end yardstick (benchmarks/e2e): all four seeded
#                     workloads through a real `repro serve` over TCP -- timed
#                     window, then the traced per-layer run; JSON under
#                     .benchmarks/full/, then one record appended to
#                     BENCH_E2E.json against E2E_PARENT (the same run.py
#                     --out taken at the parent commit)
#   make e2e-smoke    same harness at toy scale: every BENCHMARK.json metric comes
#                     out finite, no wrong answer, no server left behind (runs in CI)
#   make ci           what CI runs: tier-1 tests + smoke benchmarks + lint; leaves
#                     `git status` clean (smoke JSON goes to the ignored
#                     .benchmarks/smoke/; full-scale runs write .benchmarks/*.json)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint bench bench-smoke bench-store store-smoke bench-candidates candidates-smoke bench-fd fd-smoke bench-service serve-smoke obs-smoke bench-shard shard-smoke bench-chaos chaos-smoke bench-e2e e2e-smoke ci

test:
	$(PYTHON) -m pytest -x -q

# Prefer pyflakes when it is installed; the fallback is chosen by
# availability, not by exit status, so real pyflakes findings fail the run.
# The obs span-placement guard fails the build if span/record allocation
# creeps into per-row/per-cell loops of the hot modules.  What three
# retired guards policed is now structure, pinned by tier-1 tests: a
# scorer reads cells only through CandidateSet.table, a fault point is
# declared with inject.point() at import, and normalized_key takes a
# WorkTuple (single cells are keyed by cell_key).
lint:
	@if $(PYTHON) -c "import pyflakes" 2>/dev/null; then \
		$(PYTHON) -m pyflakes src/repro benchmarks tests tools; \
	else \
		$(PYTHON) -m compileall -q src/repro benchmarks tests tools && \
		$(PYTHON) tools/census.py --imports; \
	fi
	$(PYTHON) tools/check_obs_spans.py

bench-smoke:
	$(PYTHON) benchmarks/bench_table_engine.py --smoke --json .benchmarks/smoke/table_engine_smoke.json

bench:
	$(PYTHON) benchmarks/bench_table_engine.py --json .benchmarks/table_engine.json

# Store round-trip smoke: warm results == cold results, zero warm scans,
# timings recorded under .benchmarks/smoke/ (no speedup gate at smoke scale).
store-smoke:
	$(PYTHON) benchmarks/bench_store_warmstart.py --smoke --json .benchmarks/smoke/store_warmstart.json

bench-store:
	$(PYTHON) benchmarks/bench_store_warmstart.py --check --json .benchmarks/store_warmstart.json

# Candidate-engine smoke: engine fan-out == full-scan results, and a warm
# open + fan-out decodes no segment and builds its token postings once
# from the stats snapshots.  Unlike the other smokes this one
# keeps --check (ISSUE 3 requires the CI smoke to assert the speedup
# gate); the gate is relaxed to 1.5x (measured ~2.5x) to absorb CI
# timing jitter -- the correctness assertions run regardless.
candidates-smoke:
	$(PYTHON) benchmarks/bench_candidates.py --smoke --check --json .benchmarks/smoke/candidates.json

bench-candidates:
	$(PYTHON) benchmarks/bench_candidates.py --check --json .benchmarks/candidates.json

# FD kernel smoke: interned kernel output is asserted cell/provenance/
# null-kind/row-order identical to the legacy object kernel; timings land
# in .benchmarks/smoke/ but the >= 4.5x gate only runs at full scale (bench-fd),
# where the measurement is not jitter-dominated.
fd-smoke:
	$(PYTHON) benchmarks/bench_fd_kernel.py --smoke --json .benchmarks/smoke/fd_kernel.json

bench-fd:
	$(PYTHON) benchmarks/bench_fd_kernel.py --check --json .benchmarks/fd_kernel.json

# Serving-layer smoke: an end-to-end TCP client session (discover, cache
# hit, ingest + re-query at the new version, stats counters) plus the
# byte-identity and zero-staleness assertions at small scale; the >= 3x
# throughput gate only runs at full scale (bench-service), where the
# cold-open baseline is not jitter-dominated.
serve-smoke:
	$(PYTHON) benchmarks/bench_service.py --smoke --json .benchmarks/smoke/service.json

bench-service:
	$(PYTHON) benchmarks/bench_service.py --check --json .benchmarks/service.json

# Observability overhead smoke: the disabled-tracing pipeline vs the same
# pipeline with repro.obs entry points stubbed to bare no-ops, scored as
# the median of paired CPU-time ratios (noise-hardened for shared hosts);
# fails if the shipped instrumentation costs more than 8% (measured ~0-3%).
obs-smoke:
	$(PYTHON) tools/check_obs_overhead.py

# Sharded-lake smoke: 4-shard scatter-gather answers are asserted
# identical to the 1-shard lake's (one worker), and a single-table ingest
# must bump exactly one shard version, through a live service without
# replacing a worker process; the >= 2.5x p95 gate only runs at
# full scale (bench-shard), where per-query work dwarfs the fan-out IPC.
shard-smoke:
	$(PYTHON) benchmarks/bench_shard.py --smoke --json .benchmarks/smoke/shard.json

bench-shard:
	$(PYTHON) benchmarks/bench_shard.py --check --json .benchmarks/shard.json

# Chaos smoke: a live 4-shard service under concurrent discovers + ingests
# with injected worker kills and client connection drops.  Unlike the other
# smokes the gates run at every scale (they are correctness gates, not
# speed gates): every request completes (retried or annotated-degraded),
# zero wrong/stale answers vs a per-lake-version oracle, and non-degraded
# p95 stays within 2x the no-fault baseline measured in the same run.
chaos-smoke:
	$(PYTHON) benchmarks/bench_chaos.py --smoke --check --json .benchmarks/smoke/chaos.json

bench-chaos:
	$(PYTHON) benchmarks/bench_chaos.py --check --json .benchmarks/chaos.json

# End-to-end smoke: the bench_e2e harness (real server process tree, TCP
# clients, oracle check, traced layer budget) on tiny lakes with 1 s
# windows.  It gates the contract, not the numbers: exit status 1 on any
# wrong answer or on a metric BENCHMARK.json names that did not come out.
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# The history needs both sides: E2E_PARENT is the same command's --out
# from a checkout of the parent commit.  PR defaults to ISSUE.md's number.
E2E_OUT ?= .benchmarks/full/bench_e2e.json
E2E_PARENT ?= .benchmarks/full/bench_e2e-parent.json
PR ?= $(shell sed -n 's/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md)

bench-e2e:
	@test -f $(E2E_PARENT) || { echo "bench-e2e: $(E2E_PARENT) not found: at the parent commit, run benchmarks/e2e/run.py --out $(abspath $(E2E_PARENT))"; exit 2; }
	$(PYTHON) benchmarks/e2e/run.py --out $(E2E_OUT)
	$(PYTHON) tools/record_e2e.py $(E2E_PARENT) $(E2E_OUT) --pr $(PR)

ci: test bench-smoke store-smoke candidates-smoke fd-smoke serve-smoke obs-smoke shard-smoke chaos-smoke e2e-smoke lint
