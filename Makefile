# Development entry points for the Flower-CDN reproduction.
#
# The simulation code lives under src/; everything runs against it via
# PYTHONPATH so no installation step is needed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test goldens check-goldens shard-check goldens-paper \
        check-goldens-paper goldens-sweeps check-goldens-sweeps \
        goldens-sweeps-paper sweep-smoke sweeps \
        bench-smoke bench scenarios api-surface api-surface-update \
        perf perf-check perf-baseline perf-paper e2e-smoke path-costs \
        serve service-smoke \
        analyze analyze-changed lint typecheck

## tier-1 test suite (unit + property + scenario + golden tests + benchmarks)
test:
	$(PYTHON) -m pytest -x -q

## regenerate the committed golden-metrics files after an intentional change
goldens:
	$(PYTHON) -m repro.scenarios.golden --update

## standalone golden verification (CI runs this in addition to `test`)
check-goldens:
	$(PYTHON) -m repro.scenarios.golden

## verify that blocks placed over worker processes reproduce the committed
## goldens (every separable standard scenario; the rest print "skip"), and that
## one block == default == --shards 2 byte for byte on both documents, both
## halves of a Squirrel pair (the per-PR sharded-equivalence smoke)
shard-check:
	$(PYTHON) -m repro.scenarios.golden --shards 2
	$(PYTHON) -m repro.scenarios.golden --shards 4
	$(PYTHON) scripts/block_check.py --table1-hours 0.5 paper-default multi-locality \
		locality-partition partition-heal-reconcile adversarial-hotspots squirrel-head-to-head

## fast benchmark subset: parameter table + the headline Figure 6 comparison
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_table1_parameters.py \
		benchmarks/test_fig6_hit_ratio_comparison.py -q

## the full figure/table benchmark suite (laptop scale)
bench:
	$(PYTHON) -m pytest benchmarks/ -q

## list the scenario library
scenarios:
	$(PYTHON) -m repro.cli scenarios list

## verify the committed public-API snapshot (tests/api_surface.json)
api-surface:
	$(PYTHON) -m pytest tests/test_api_surface.py -q

## refresh the API snapshot after an intentional public-API change
api-surface-update:
	$(PYTHON) tests/test_api_surface.py --update

## run the perf-benchmark suite; writes ./BENCH_core.json (see docs/performance.md)
perf:
	$(PYTHON) -m repro.cli perf

## perf suite + regression gate against the committed baseline (what CI runs)
perf-check:
	$(PYTHON) -m repro.cli perf --check

## refresh the committed perf baseline (benchmarks/perf/BENCH_core.json)
perf-baseline:
	$(PYTHON) -m repro.cli perf --update-baseline

## perf suite including the end-to-end paper-scale benchmark (minutes)
perf-paper:
	$(PYTHON) -m repro.cli perf --paper-scale

## the benchmark of record at smoke sizes: all four workloads, both passes,
## every declared metric (benchmarks/e2e; reaches the program only through
## schedule_trace, the event labels and the driver's constructor names)
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

## what each protocol path costs per call (miss path, join, gossip tick,
## collector) at the benchmark of record's paper-scale size; wrappers installed
## from outside src/, wrapped documents checked against an unwrapped run
path-costs:
	$(PYTHON) scripts/path_costs.py --table1-hours 1.5 --check-digest

## list the registered parameter sweeps
sweeps:
	$(PYTHON) -m repro.cli sweep list

## regenerate the committed sweep goldens (tests/goldens/sweeps/)
goldens-sweeps:
	$(PYTHON) -m repro.sweeps.golden --update --jobs 4

## verify the committed sweep goldens (also covered by `make test`)
check-goldens-sweeps:
	$(PYTHON) -m repro.sweeps.golden --jobs 4

## small sweep grid across 2 workers with artifact export (what CI runs)
sweep-smoke:
	$(PYTHON) -m repro.cli sweep run table2a-gossip-length \
		--scale 0.1 --jobs 2 --out sweep-artifacts --table

## regenerate the nightly paper-scale goldens (full Table 1 runs; minutes each)
goldens-paper:
	$(PYTHON) -m repro.scenarios.golden --update --tier paper-scale

## verify the paper-scale goldens (what the nightly job runs)
check-goldens-paper:
	$(PYTHON) -m repro.scenarios.golden --tier paper-scale

## regenerate the nightly scale-1.0 sweep golden (Table 2a grid; minutes)
goldens-sweeps-paper:
	$(PYTHON) -m repro.sweeps.golden --update --scale 1.0 table2a-gossip-length

## run the HTTP job service on the default port (see docs/service.md)
serve:
	$(PYTHON) -m repro.cli serve --store run-store

## boot the service on an ephemeral port and drive the end-to-end smoke
## (dedupe, byte-identity vs a direct run, 429 backpressure, graceful drain)
service-smoke:
	$(PYTHON) scripts/service_smoke.py --store service-smoke-store

## determinism/invariant static analysis (rules DET001..DET007, in-tree, no deps)
analyze:
	$(PYTHON) -m repro.cli analyze src

## analyze only files changed vs HEAD (the fast pre-commit loop)
analyze-changed:
	$(PYTHON) -m repro.cli analyze --changed src tests

## ruff style/hygiene lint (CI installs ruff; fails with a hint when it is missing)
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "error: ruff is not installed; install it with 'python -m pip install ruff' (CI does — see .github/workflows/ci.yml)" >&2; \
		exit 1; \
	fi

## mypy typing gate (strict-ish for core/sim/datastructures/scenarios/network/
## overlay/service, mypy.ini);
## CI installs mypy; fails with a hint when it is missing
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --config-file mypy.ini; \
	else \
		echo "error: mypy is not installed; install it with 'python -m pip install mypy' (CI does — see .github/workflows/ci.yml)" >&2; \
		exit 1; \
	fi
