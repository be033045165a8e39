"""Fixture: DET007-clean (the spec goes through a Session)."""
from repro.experiments.driver import ExperimentRunner
from repro.session import Session


def run_once(spec):
    session = Session(spec)
    assert isinstance(session.experiment, ExperimentRunner)
    return session.run_system("flower")
