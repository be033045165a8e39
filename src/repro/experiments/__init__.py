"""Experiment harness behind the paper's single-run figures.

The shared :class:`~repro.experiments.driver.ExperimentRunner` builds one
environment under a :class:`~repro.session.Session` and feeds the exact same
query trace to Flower-CDN and Squirrel; the modules next to it extract what
one figure family plots from a spec's runs (Section 6): the Figure 6–8
comparison and locality-awareness measurements, and the churn ablation.
Figure 5 needs no module of its own — its two curves are the ``series`` of a
run's Flower-CDN result (``hit_ratio_cumulative``, ``background_bps_per_peer``).
Multi-run families (the Table 2 grids, the ablation grids) are registered
sweeps — see :mod:`repro.sweeps.library`.
"""

from repro.experiments.driver import ExperimentRunner, ExperimentSetup, RunResult
from repro.experiments.locality import LocalityResults, run_locality_experiment
from repro.experiments.churn import ChurnResults, run_churn_experiment

__all__ = [
    "ExperimentRunner",
    "ExperimentSetup",
    "RunResult",
    "LocalityResults",
    "run_locality_experiment",
    "ChurnResults",
    "run_churn_experiment",
]
