"""Experiment harness behind the paper's single-run figures.

The shared :class:`~repro.experiments.driver.ExperimentRunner` builds one
environment and feeds the exact same query trace to Flower-CDN and Squirrel;
the modules next to it extract what one figure family plots from such runs
(Section 6): the Figure 5 trade-off time series, the Figure 6–8 comparison
and locality-awareness measurements, and the churn ablation.  Multi-run
families (the Table 2 grids, the ablation grids) are registered sweeps — see
:mod:`repro.sweeps.library`.
"""

from repro.experiments.driver import ExperimentRunner, ExperimentSetup, RunResult
from repro.experiments.timeseries import TradeoffTimeseries, run_tradeoff_timeseries
from repro.experiments.locality import LocalityResults, run_locality_experiment
from repro.experiments.churn import ChurnResults, run_churn_experiment

__all__ = [
    "ExperimentRunner",
    "ExperimentSetup",
    "RunResult",
    "TradeoffTimeseries",
    "run_tradeoff_timeseries",
    "LocalityResults",
    "run_locality_experiment",
    "ChurnResults",
    "run_churn_experiment",
]
