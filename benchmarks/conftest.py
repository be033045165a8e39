"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 6) at *laptop scale*: the parameter ratios of Table 1 are preserved
but the run is shortened so the whole suite finishes in a few minutes.  Pass
``--paper-scale`` to run the original 24-hour, 5000-host configuration
instead (slow, but it is the configuration the paper used).

The printed tables/series are emitted outside pytest's capture so they appear
directly in ``pytest benchmarks/ --benchmark-only`` output, which is what
EXPERIMENTS.md records.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.scenarios.library import get_scenario  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402
from repro.sweeps.engine import SweepResult, run_sweep  # noqa: E402
from repro.sweeps.library import get_sweep  # noqa: E402

#: the paper-scale counterpart of each sweep base (what --paper-scale swaps in)
FULL_SCALE_BASES = {
    "paper-default": "paper-default-full-scale",
    "squirrel-head-to-head": "squirrel-head-to-head-full-scale",
}


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the benchmarks at the paper's full Table 1 scale (much slower)",
    )


@pytest.fixture(scope="session")
def bench_scenario(request: pytest.FixtureRequest) -> ScenarioSpec:
    """The library scenario every single-run benchmark harness runs.

    ``paper-default`` *is* the Table 1 parameter set at laptop scale, and
    ``--paper-scale`` swaps in ``paper-default-full-scale`` — the scenario
    library is the single source of truth for these parameters.  Harnesses
    run it (or a ``replace()`` of it) through a :class:`~repro.session.Session`.
    """
    if request.config.getoption("--paper-scale"):
        return get_scenario(FULL_SCALE_BASES["paper-default"])
    return get_scenario("paper-default")


@pytest.fixture(scope="session")
def run_registered_sweep(request: pytest.FixtureRequest):
    """Run a sweep from the registry at the harness's scale.

    The sweep benchmarks (Table 2, the ablations, Figure 6) source their
    whole grid from :mod:`repro.sweeps.library`; ``--paper-scale`` swaps the
    base scenario for its full Table 1 counterpart.  Runs are sequential so
    each cell keeps its full :class:`ScenarioResult` attached (the Figure 6
    harness asserts on the time series).
    """
    paper_scale = request.config.getoption("--paper-scale")

    def run(name: str) -> SweepResult:
        sweep = get_sweep(name)
        if paper_scale:
            base = get_scenario(FULL_SCALE_BASES[sweep.base])
            return run_sweep(sweep, base_spec=base)
        return run_sweep(sweep)

    return run


@pytest.fixture
def report(capsys: pytest.CaptureFixture):
    """Print a result block so it is visible in the benchmark run's output."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return emit
