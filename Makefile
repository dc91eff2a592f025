# Convenience targets for the HierGAT reproduction.

PYTHON ?= python3

.PHONY: install test lint ci coverage check bench examples clean-cache

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
# asserting no crash and record conservation), an embedding-store smoke
# (build a tiny shard set, score the test split from it, and assert
# bitwise store/live parity plus full store coverage: `embed --verify`
# exits non-zero on either).  The streaming-resolution kill drill (a
# SIGKILLed `repro resolve` run resumes to a bitwise-identical cluster
# state; `TestKillDrill` in tests/test_resolve.py) and streaming ==
# offline on the same 450-record stream are fast tests.
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

# Line coverage of src/repro over the fast tier (tools/cov.py uses
# coverage.py when installed, else a built-in settrace fallback).
coverage:
	PYTHONPATH=src $(PYTHON) tools/cov.py tests -q -m "not slow"

# Full pre-merge gate: the unit suite, the benchmark's self-tests (its
# percentile, gate and tracer arithmetic), coverage floors on the analysis
# package (the lint rules + sanitizers must themselves stay well-tested),
# the resolve package (the crash-safety layer likewise) and the blocking
# package (the candidate generator every resolver and service query uses),
# plus a profiled end-to-end smoke run.
check:
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest perfbench -q
	PYTHONPATH=src $(PYTHON) tools/cov.py --package analysis --min 90 \
		tests/test_analysis.py tests/test_analysis_concurrency.py \
		-q -m "not slow"
	PYTHONPATH=src $(PYTHON) tools/cov.py --package resolve --min 90 \
		tests/test_resolve.py -q -m "not slow"
	PYTHONPATH=src $(PYTHON) tools/cov.py --package blocking --min 90 \
		tests/test_blocking_ann.py tests/test_blocking_contract.py \
		tests/test_blocking.py -q -m "not slow"
	$(PYTHON) -m repro profile --dataset Beer --fast --top 5

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py --fast
	$(PYTHON) examples/product_matching.py --fast
	$(PYTHON) examples/collective_er.py --fast
	$(PYTHON) examples/dirty_data_robustness.py --fast
	$(PYTHON) examples/label_efficiency.py --fast
	$(PYTHON) examples/explain_and_deploy.py --fast

clean-cache:
	rm -rf .lm_cache
