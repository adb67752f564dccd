# Convenience entry points; every target assumes the source layout
# documented in README.md (src/ on PYTHONPATH, no install required).

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test lint docs-check coverage bench-throughput bench-dynamic bench-fleet bench-service bench-longtail bench-gateway bench-smoke perfbench-smoke flight-smoke fuzz check

# Everything the ruff gate covers — named explicitly so benchmarks/ and
# scripts/ can never silently drop out of the lint surface.  Update when
# adding a top-level package or script.
LINT_TARGETS = src tests benchmarks scripts examples setup.py

# Coverage floor for `make coverage` / CI.  Measured 96.5% line
# coverage (scripts/measure_coverage.py); the floor sits a few points
# under to absorb counting differences between that tracer and
# pytest-cov.  Raise it as the measured value grows.
COV_FLOOR ?= 92

# Tier-1 verification: the full test suite (includes the docs gate via
# tests/core/test_docs_check.py).
test:
	$(PYTHON) -m pytest -x -q

# Ruff gate (config in pyproject.toml: pyflakes + runtime pycodestyle
# errors).  Offline environments without ruff skip with a notice — CI
# always installs it, so findings cannot land on main.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check $(LINT_TARGETS); \
	else \
		echo "lint: ruff not installed; skipped (CI runs it)"; \
	fi

# Fail if any public function/class/method in repro.vision,
# repro.recognition, repro.sax, repro.simulation, repro.mission,
# repro.protocol, repro.service or repro.dataflow lacks a docstring
# (see docs/ARCHITECTURE.md).
docs-check:
	$(PYTHON) scripts/check_docstrings.py

# Tier-1 with line coverage enforced at the measured floor.  Uses
# pytest-cov when installed (CI always installs it); offline
# environments fall back to the dependency-free tracer in
# scripts/measure_coverage.py (reports, but does not enforce).
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --cov=src/repro --cov-report=term-missing:skip-covered \
			--cov-fail-under=$(COV_FLOOR); \
	else \
		echo "coverage: pytest-cov not installed; using scripts/measure_coverage.py"; \
		$(PYTHON) scripts/measure_coverage.py; \
	fi

# Regenerate BENCH_throughput.json (gates: matcher >= 5x, end-to-end
# >= 3x, distinct-frame >= 1.5x; see docs/BENCHMARKS.md).
bench-throughput:
	$(PYTHON) benchmarks/bench_throughput.py

# Regenerate BENCH_dynamic_batch.json (gates: window >= 3x, distinct
# window >= 1.2x, stream overhead <= 2x; see docs/BENCHMARKS.md).
bench-dynamic:
	$(PYTHON) benchmarks/bench_dynamic_batch.py

# Regenerate BENCH_fleet.json (gates: batched fleet >= 3x the
# sequential per-mission/per-frame loop on 16 missions with outcome
# parity, Oracle-parity on clean scenarios, flight-recorder overhead
# <= 10% with a byte-identical replay; see docs/BENCHMARKS.md).
bench-fleet:
	$(PYTHON) benchmarks/bench_fleet.py

# Regenerate BENCH_service.json (gate: sharded service >= 1.8x the
# single-process classify_batch on 4 workers, enforced on multi-core
# hosts; verdict parity unconditional; see docs/BENCHMARKS.md).
bench-service:
	$(PYTHON) benchmarks/bench_service.py

# Regenerate BENCH_longtail.json (surveillance fleet under bursty
# intruder load + long-tail window throughput; determinism assertions
# are unconditional; see docs/BENCHMARKS.md).
bench-longtail:
	$(PYTHON) benchmarks/bench_longtail.py

# Regenerate BENCH_gateway.json (gates: p50/p99 latency SLOs and
# no-shedding, enforced on full runs; verdict + window parity
# unconditional; see docs/BENCHMARKS.md).
bench-gateway:
	$(PYTHON) benchmarks/bench_gateway.py

# Reduced-size benchmark runs with perf gates disabled (parity checks
# stay on) — the CI smoke job uses this so bench scripts cannot rot,
# then diffs the artifacts against the committed baselines with
# scripts/compare_bench.py.
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_throughput.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_dynamic_batch.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_fleet.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_service.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_longtail.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_gateway.py

# Repository-benchmark smoke: perfbench's self-tests, then one short
# traced run of each BENCHMARK.json workload (seed 1).  A run fails the
# target unless it exits 0 and its result line (the last stdout line)
# reports "failed": 0.  Entries are workload:seconds.
PERFBENCH_SMOKE_RUNS = fleet-orchard:6 surveillance-recorded:6 perception-served:10
perfbench-smoke:
	$(PYTHON) -m pytest perfbench -q
	@for run in $(PERFBENCH_SMOKE_RUNS); do \
		workload=$${run%%:*}; seconds=$${run##*:}; \
		echo "perfbench-smoke: $$workload --seconds $$seconds --trace 1"; \
		out=$$($(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds $$seconds --trace 1) || exit 1; \
		result=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$result"; \
		case "$$result" in \
			*'"failed": 0,'*) ;; \
			*) echo "perfbench-smoke: $$workload reported failures"; exit 1 ;; \
		esac; \
	done

# Flight-recorder smoke: record a small fleet run, replay it (byte
# compare), and self-diff the fresh recording against the original —
# the record/replay/diff CLI pipeline end to end (see
# docs/ARCHITECTURE.md "Flight recorder").  CI runs this in the
# bench-smoke job; recordings land in FLIGHT_DIR.
FLIGHT_DIR ?= flight-artifacts
flight-smoke:
	mkdir -p $(FLIGHT_DIR)
	$(PYTHON) scripts/flight_record.py record --out $(FLIGHT_DIR)/smoke.jsonl \
		--builder fleet --missions 2 --perception oracle --smoke
	$(PYTHON) scripts/flight_record.py replay $(FLIGHT_DIR)/smoke.jsonl \
		--out $(FLIGHT_DIR)/smoke-replay.jsonl
	$(PYTHON) scripts/flight_diff.py $(FLIGHT_DIR)/smoke.jsonl \
		$(FLIGHT_DIR)/smoke-replay.jsonl
	$(PYTHON) scripts/flight_record.py tail $(FLIGHT_DIR)/smoke.jsonl

# Seeded long-tail fuzz: randomized adversarial scenarios through the
# full recognition + fleet stack, safety invariants asserted, failures
# auto-minimised into fuzz-artifacts/ (exit 1 on any violation).  The
# same FUZZ_SEED reproduces the same scenarios, verdicts and minimised
# case bytes; tier-1 replays only the committed corpus in
# tests/data/longtail/ — the open-ended search runs nightly.
FUZZ_SEED ?= 0
FUZZ_ITERATIONS ?= 25
fuzz:
	$(PYTHON) scripts/run_fuzz.py --seed $(FUZZ_SEED) --iterations $(FUZZ_ITERATIONS)

check: lint docs-check test
