"""Performance benchmark suite and tracked baselines.

``repro perf`` (see :mod:`repro.perf.suite`) runs microbenchmarks of the hot
layers (event core, latency cache, Zipf sampler) plus library scenarios timed
as ``Session`` runs them, and emits ``BENCH_core.json``.  The committed
baseline lives at ``benchmarks/perf/BENCH_core.json``; CI re-runs the suite
and fails when events/sec regresses more than the configured threshold
against it.  See ``docs/performance.md`` for the workflow.
"""

from repro.perf.suite import (  # noqa: F401
    DEFAULT_BASELINE_PATH,
    DEFAULT_SCENARIOS,
    PAPER_SCALE_SCENARIO,
    REGRESSION_THRESHOLD,
    bench_run,
    compare_to_baseline,
    run_memory_suite,
    run_suite,
)
