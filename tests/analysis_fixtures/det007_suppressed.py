"""Fixture: DET007 violation silenced by an inline suppression."""
from repro.experiments.driver import ExperimentRunner


def rebuild(setup):
    return ExperimentRunner(setup)  # repro: allow(DET007)
