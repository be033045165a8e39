"""Fixture: DET007 violations (a run built around the Session)."""
import repro.experiments.driver as driver
from repro.experiments.driver import ExperimentRunner as Runner
from repro.experiments.driver import ExperimentRunner


def run_once(spec):
    return ExperimentRunner(spec.to_setup()).run_squirrel()  # expect: DET007


def run_qualified(spec):
    return driver.ExperimentRunner(spec.to_setup())  # expect: DET007


def run_aliased(setup):
    return Runner(setup)  # expect: DET007
