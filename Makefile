# Convenience targets for the reproduction harness.
#
#   make test        - the full tier-1 suite (tests/)
#   make test-fast   - tier-1 minus the multi-second 'slow'/'drift' tests
#   make test-fault  - fault-injection / resilience tests only
#   make test-drift  - drift-detection / online re-tuning tests only
#   make test-ml     - training-engine / model-layer tests only
#   make test-search - strategy-zoo / bandit meta-tuner tests only
#   make bench       - the benchmark suite (figures, ablations, perf gates)
#   make serve-smoke - tuning daemon + load generator under flaky-gpu faults
#   make drift-smoke - daemon + load + watch campaign under thermal-throttle
#   make experiments - regenerate EXPERIMENTS.md with a warm oracle store

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-fault test-drift test-ml test-search bench serve-smoke drift-smoke experiments

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow and not drift"

test-fault:
	$(PYTHON) -m pytest tests/ -m fault

test-drift:
	$(PYTHON) -m pytest tests/ -m drift

test-ml:
	$(PYTHON) -m pytest tests/ -m ml

test-search:
	$(PYTHON) -m pytest tests/ -m search

bench:
	cd benchmarks && PYTHONPATH=../src:.. $(PYTHON) -m pytest .

serve-smoke:
	$(PYTHON) -m repro.serve.smoke

drift-smoke:
	$(PYTHON) -m repro.serve.smoke --drift thermal-throttle

experiments:
	$(PYTHON) -m repro.experiments.run_all --oracle-store .oracle --out EXPERIMENTS.md
