# Convenience targets for the HierGAT reproduction.

PYTHON ?= python3

.PHONY: install test lint ci coverage check bench bench-full bench-serve bench-robust bench-block examples report clean-cache

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Invariant lint: the determinism/gradient rule pack (R001-R006) plus the
# concurrency pack (R007-R010: guarded state, lock order, no blocking under
# lock, atomic counters) in src/repro/analysis (catalog in docs/ANALYSIS.md).
# Exit 0 means the tree is clean.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro

# Fast tier: everything except @pytest.mark.slow, for pre-push / CI loops.
# Runs from a clean checkout (no `make install` needed) via PYTHONPATH.
# Ends with a live `repro serve --soak --lockcheck` smoke through the
# 2-replica multi-process cluster router (concurrent traffic + the router
# and replica chaos plans, asserting conservation, tier-1 parity across
# batch coalescing, and zero lock-order violations / unguarded
# shared-state writes), a fast
# firewall fuzz smoke (corrupted bytes through ingestion + serving,
# asserting no crash and record conservation), and an embedding-store
# smoke: build a tiny shard set, score the test split from it, and assert
# bitwise store/live parity plus full store coverage (`embed --verify`
# exits non-zero on either), a blocking smoke (1k synthetic records;
# an ANN blocker must reach pair-completeness >= 0.9 at >= 5x reduction),
# and a streaming-resolution smoke (~500-record multi-source stream:
# streaming must equal offline batch clustering exactly, and a SIGKILLed
# `repro resolve` run must resume to a bitwise-identical cluster state).
# Right after lint, `repro lockgraph` checks the static lock graph against
# LOCK_HIERARCHY and exits 1 on a cycle.
ci: lint
	PYTHONPATH=src $(PYTHON) -m repro lockgraph > /dev/null
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q -m "not slow"
	PYTHONPATH=src $(PYTHON) -m repro serve --dataset Beer --fast --soak \
		--lockcheck --replicas 2 --clients 3 --requests 4 --pairs 6 --capacity 8
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_guard_fuzz.py -q -k smoke
	rm -rf .repro-ci-store
	PYTHONPATH=src $(PYTHON) -m repro embed --dataset Beer --fast \
		--store .repro-ci-store --verify
	rm -rf .repro-ci-store
	PYTHONPATH=src $(PYTHON) benchmarks/run_block.py --smoke
	PYTHONPATH=src $(PYTHON) benchmarks/run_resolve.py --smoke

# Line coverage of src/repro over the fast tier (tools/cov.py uses
# coverage.py when installed, else a built-in settrace fallback).
coverage:
	PYTHONPATH=src $(PYTHON) tools/cov.py tests -q -m "not slow"

# Full pre-merge gate: the unit suite, the benchmark's self-tests (its
# percentile, gate and tracer arithmetic), coverage floors on the analysis
# package (the lint rules + sanitizers must themselves stay well-tested)
# and the resolve package (the crash-safety layer likewise),
# plus a profiled end-to-end smoke run.
check:
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest perfbench -q
	PYTHONPATH=src $(PYTHON) tools/cov.py --package analysis --min 90 \
		tests/test_analysis.py tests/test_analysis_concurrency.py \
		-q -m "not slow"
	PYTHONPATH=src $(PYTHON) tools/cov.py --package resolve --min 90 \
		tests/test_resolve.py -q -m "not slow"
	$(PYTHON) -m repro profile --dataset Beer --fast --top 5

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Serving-layer soak benchmark: clean/chaos/pressure soaks plus the
# 1/2/4-replica cluster scaling curve, writes BENCH_serve.json.
bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/run_serve.py

# Corruption-robustness benchmark: F1 + quarantine/drift rates vs corruption
# rate for HierGAT/Ditto/Magellan, writes BENCH_robust.json.
bench-robust:
	PYTHONPATH=src $(PYTHON) benchmarks/run_robust.py

# Blocking benchmark: PC/RR curves at 10k + the streaming 1M-record build,
# writes BENCH_block.json.
bench-block:
	PYTHONPATH=src $(PYTHON) benchmarks/run_block.py

# Streaming-resolution benchmark: records/s through the WAL-backed
# incremental cluster store, streaming-vs-offline equality, and the timed
# kill -9 + resume drill (bitwise recovery); writes BENCH_resolve.json.
bench-resolve:
	PYTHONPATH=src $(PYTHON) benchmarks/run_resolve.py

bench-full:
	$(PYTHON) benchmarks/run_all.py

examples:
	$(PYTHON) examples/quickstart.py --fast
	$(PYTHON) examples/product_matching.py --fast
	$(PYTHON) examples/collective_er.py --fast
	$(PYTHON) examples/dirty_data_robustness.py --fast
	$(PYTHON) examples/label_efficiency.py --fast
	$(PYTHON) examples/explain_and_deploy.py --fast

report:
	$(PYTHON) benchmarks/make_report.py

clean-cache:
	rm -rf .lm_cache
