"""The public one-query API agrees with the replay a run makes.

A run answers its trace through each system's ``trace_replay`` callback,
straight into outcome columns that the run's one fold records;
``process_query`` — one query in, one row returned, nothing recorded — is the
public API no production run calls.  Feeding the resolved trace row by row
through ``process_query`` into a collector of the test's own must give the
rows the run recorded: for a plain spec, a gated one (a partition fault
model attached to every block) and both halves of a Squirrel head-to-head.
"""

from __future__ import annotations

import pytest

from repro.baselines.squirrel import Squirrel
from repro.metrics.collectors import MetricsCollector
from repro.network.latency import LatencyModel
from repro.scenarios.library import get_scenario
from repro.session import Session
from repro.sim.engine import Simulator
from tests.reference.workload import answer, resolved_queries

SCALE = 0.25
SEED = 42
CASES = (
    ("paper-default", "flower"),
    ("locality-partition", "flower"),
    ("squirrel-head-to-head", "flower"),
    ("squirrel-head-to-head", "squirrel"),
)


def one_query_at_a_time(session: Session, system_name: str):
    """The rows of a system fed the trace through ``process_query``, one
    query per trace entry, with the spec's models attached as a run attaches them."""
    setup, trace = session.setup, session.resolved_trace()
    duration = setup.flower.simulation_duration_s
    injectors = []
    if system_name == "flower":
        sim, system = session.build_flower()
        injectors = session.attach_models(system)
    else:
        sim = Simulator(seed=setup.seed, end_time=duration, queue_backend=setup.queue_backend)
        system = Squirrel(
            sim, session.experiment.topology,
            latency_model=LatencyModel(session.experiment.topology),
        )
        system.bootstrap()
    for injector in injectors:
        injector.start()
    queries = iter(resolved_queries(trace))
    metrics = MetricsCollector()

    def answer_next_query() -> None:
        answer(system, next(queries), metrics)

    sim.schedule_trace(trace.times, answer_next_query, label="query")
    sim.run(until=duration)
    for injector in reversed(injectors):
        injector.stop()
    return metrics.records


@pytest.mark.parametrize("name, system_name", CASES)
def test_process_query_row_by_row_gives_the_rows_of_the_run(name, system_name):
    spec = get_scenario(name).scaled(SCALE)
    assert not spec.compact_metrics
    replayed = Session(spec, seed=SEED).run_system(system_name).metrics.records
    assert len(replayed) == len(Session(spec, seed=SEED).resolved_trace())
    assert one_query_at_a_time(Session(spec, seed=SEED), system_name) == replayed
