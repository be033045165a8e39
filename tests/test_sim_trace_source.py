"""A merge-fed trace fires exactly where ``schedule_batch`` would have put it.

``Simulator.schedule_trace`` registers a sorted time column as a *trace
source* that the dispatch loop merges with the queue; the reference
semantics are the parent's: every entry scheduled as a queue event at
registration time (``schedule_batch`` of the same times).  The property runs
one random program on both and compares the complete firing logs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.sim.engine import PeriodicHandle, SimulationError, Simulator

END_TIME = 25.0
#: a coarse grid, so exact time ties between trace entries, one-shot events
#: and periodic ticks are the norm rather than the exception
GRID = st.integers(0, 40).map(lambda k: k * 0.5)

OPS = st.one_of(
    st.tuples(st.just("at"), GRID),
    st.tuples(st.just("every"), st.sampled_from([0.5, 1.0, 1.5, 4.0]), GRID),
)
REACTIONS = st.one_of(
    st.tuples(st.just("at"), st.sampled_from([0.0, 0.5, 2.0])),
    st.tuples(st.just("cancel"), st.integers(0, 13)),
    st.just(("stop",)),
    st.just(("second",)),
)


@st.composite
def programs(draw):
    return {
        "backend": draw(st.sampled_from(["heap", "calendar"])),
        "pre": draw(st.lists(OPS, max_size=6)),
        "trace": sorted(draw(st.lists(GRID, min_size=1, max_size=25))),
        "post": draw(st.lists(OPS, max_size=6)),
        # what the i-th trace entry / i-th one-shot event does when it fires
        "trace_reactions": draw(st.dictionaries(st.integers(0, 24), REACTIONS, max_size=5)),
        "event_reactions": draw(st.dictionaries(st.integers(0, 11), REACTIONS, max_size=3)),
        "second": sorted(draw(st.lists(GRID, max_size=8))),
        "windows": sorted(draw(st.lists(GRID, max_size=4))),
        "drain_with_step": draw(st.booleans()),
    }


def _as_trace(sim, times, callback):
    sim.schedule_trace(times, callback, label="query")


def _as_batch(sim, times, callback):
    sim.schedule_batch([(time, callback) for time in times], label="query")


def _execute(program, register):
    """Run ``program`` with the trace fed through ``register``; return the log."""
    sim = Simulator(seed=1, end_time=END_TIME, queue_backend=program["backend"])
    log = []
    handles = []
    fired_once = set()
    second_registered = []

    def react(reaction):
        kind = reaction[0]
        if kind == "at":
            schedule(("at", sim.now + reaction[1]), f"dyn{len(handles)}")
        elif kind == "cancel" and reaction[1] < len(handles):
            label, handle = handles[reaction[1]]
            if isinstance(handle, PeriodicHandle):
                handle.cancel()
            elif label not in fired_once:
                sim.cancel(handle)
        elif kind == "stop":
            sim.stop()
        elif kind == "second" and not second_registered:
            second_registered.append(True)
            times = [time for time in program["second"] if time >= sim.now]
            register(sim, times, lambda: log.append(("second", sim.now)))

    def schedule(op, label):
        index = len(handles)

        def fire():
            log.append((label, sim.now))
            if op[0] == "at":
                fired_once.add(label)
                reaction = program["event_reactions"].get(index)
                if reaction is not None:
                    react(reaction)

        if op[0] == "at":
            handles.append((label, sim.at(op[1], fire, label=label)))
        else:
            handles.append((label, sim.call_every(op[1], fire, start=op[2], label=label)))

    cursor = [0]

    def on_trace():
        index = cursor[0]
        cursor[0] = index + 1
        log.append(("trace", index, sim.now))
        reaction = program["trace_reactions"].get(index)
        if reaction is not None:
            react(reaction)

    for position, op in enumerate(program["pre"]):
        schedule(op, f"pre{position}")
    register(sim, program["trace"], on_trace)
    for position, op in enumerate(program["post"]):
        schedule(op, f"post{position}")

    for until in program["windows"]:
        if until >= sim.now:
            sim.run(until=until)
            log.append(("window", sim.now, sim.events_fired, sim.pending_events))
    if program["drain_with_step"]:
        while sim.step():
            pass
    else:
        sim.run()
        sim.run()  # a stop() ends one run; the next one picks the trace up again
    log.append(("end", sim.now, sim.events_fired, sim.pending_events))
    return log


@settings(max_examples=300, deadline=None)
@given(programs())
def test_trace_source_fires_in_schedule_batch_order(program):
    assert _execute(program, _as_trace) == _execute(program, _as_batch)


@pytest.mark.parametrize("backend", ["heap", "calendar"])
def test_ties_resolve_by_registration_order(backend):
    sim = Simulator(seed=1, queue_backend=backend)
    log = []
    sim.at(1.0, lambda: log.append("before"))
    sim.schedule_trace([1.0, 1.0], lambda: log.append("first"))
    sim.at(1.0, lambda: log.append("between"))
    sim.schedule_trace([1.0], lambda: log.append("second"))
    sim.at(1.0, lambda: log.append("after"))
    sim.run()
    assert log == ["before", "first", "first", "between", "second", "after"]
    assert sim.events_fired == 6


def test_windows_stop_and_horizon():
    sim = Simulator(seed=1, end_time=10.0)
    fired = []

    def fire():
        fired.append(sim.now)
        if sim.now == 3.0:
            sim.stop()

    sim.schedule_trace([1.0, 2.0, 3.0, 4.0, 12.0], fire)
    assert sim.run(until=2.5) == 2.5 and fired == [1.0, 2.0]
    assert sim.run(until=8.0) == 3.0  # stopped mid-trace: the clock stays put
    assert sim.pending_events == 2
    assert sim.run() == 10.0 and fired == [1.0, 2.0, 3.0, 4.0]
    # The entry past end_time is never fired, and stays pending.
    assert not sim.step() and sim.pending_events == 1 and sim.events_fired == 4


def test_generator_input_and_empty_trace():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule_trace((float(i) for i in range(3)), lambda: fired.append(sim.now))
    sim.schedule_trace([], lambda: fired.append("never"))
    sim.run()
    assert fired == [0.0, 1.0, 2.0]


def test_unsorted_trace_is_rejected_when_reached():
    sim = Simulator(seed=1)
    sim.schedule_trace([1.0, 3.0, 2.0], lambda: None)
    with pytest.raises(SimulationError, match="not sorted"):
        sim.run()
