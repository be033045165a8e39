"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  A traced run swaps six
names inside :mod:`repro.experiments.driver` for subclasses defined here —
the documented public constructors stay untouched, only *who* is
constructed changes:

* :class:`TracedSimulator` overrides the public ``call_every`` / ``at`` /
  ``schedule_trace`` / ``run`` and wraps every callback in a span keyed by
  the label class the program already assigns (``query``, ``gossip:*``,
  ``keepalive:*``, ``dir-tick:*``, ``churn-injector`` / ``burst-churn``,
  ``fault``, ``active-replication``);
* timed subclasses of ``Topology``, ``QueryGenerator``, ``ClientAssigner``,
  ``FlowerCDN`` and ``Squirrel`` put a span around one set-up method each.

Spans live in memory until :meth:`Tracer.dump` writes them.  A span's *self
time* is its duration minus the durations of its direct children; event
spans are children of the ``sim.run`` span that dispatched them, so
``sim.run``'s self time is the queue's own cost (pops, trace feeder,
cancelled periodic handles, the wrappers themselves).
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.experiments.driver as driver
from repro.sim.engine import PeriodicHandle, Simulator

#: event-label class -> layer span name.  A label class missing here is kept
#: under ``unknown.<class>`` and counted as unattributed time, so a label a
#: later change introduces fails the span-accounting gate instead of
#: silently disappearing into queue self time.
EVENT_LAYERS = {
    "query": "core.query",
    "gossip": "core.gossip",
    "keepalive": "core.keepalive",
    "dir-tick": "core.directory_tick",
    "churn-injector": "scenarios.models",
    "burst-churn": "scenarios.models",
    "fault": "scenarios.models",
    "active-replication": "core.replication",
}
#: the ``query`` class belongs to the baseline when Squirrel is the system
SQUIRREL_QUERY_LAYER = "baselines.squirrel_query"
#: harness spans that only group other spans; their self time is glue the
#: trace could not attribute to a layer
CONTAINER_SPANS = frozenset({"job"})


class Tracer:
    """In-memory span store: harness spans row-wise, event spans columnar."""

    def __init__(self) -> None:
        #: harness spans as ``[name, start, end, parent_index, run_id]``
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        #: per-simulator event logs: ``(parent_index, run_id, {layer: (starts, ends)})``
        self.event_logs: List[Tuple[int, str, Dict[str, Tuple[array, array]]]] = []
        #: identifier shared by every span of one scenario run
        self.run_id = ""
        #: which system the next constructed simulator will drive
        self.system = "flower"

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def current(self) -> int:
        return self._open[-1] if self._open else -1

    # -- accounting ---------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """``layer name -> (self seconds, calls)`` over every recorded span."""
        child_time = [0.0] * len(self.spans)
        totals: Dict[str, List[float]] = {}
        for _name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for parent, _run, layers in self.event_logs:
            for layer, (starts, ends) in layers.items():
                seconds = sum(ends) - sum(starts)
                entry = totals.setdefault(layer, [0.0, 0])
                entry[0] += seconds
                entry[1] += len(starts)
                if parent >= 0:
                    child_time[parent] += seconds
        for index, (name, start, end, _parent, _run) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += (end - start) - child_time[index]
            entry[1] += 1
        return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}

    def unattributed_s(self) -> float:
        """Self time of container spans plus time under unknown event labels."""
        return sum(
            seconds
            for name, (seconds, _calls) in self.layer_totals().items()
            if name in CONTAINER_SPANS or name.startswith("unknown.")
        )

    def event_calls(self) -> int:
        return sum(
            len(starts)
            for _parent, _run, layers in self.event_logs
            for starts, _ends in layers.values()
        )

    def dump(self, path: Path) -> None:
        """Write every span: harness spans in full, event spans as columns."""
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            "clock": "perf_counter seconds since the first span",
            "spans": [
                {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "run": run,
                }
                for name, start, end, parent, run in self.spans
            ],
            "event_spans": [
                {
                    "parent": parent,
                    "run": run,
                    "layers": {
                        layer: {
                            "start_us": [round((t - origin) * 1e6) for t in starts],
                            "duration_us": [
                                round((e - s) * 1e6, 1) for s, e in zip(starts, ends)
                            ],
                        }
                        for layer, (starts, ends) in layers.items()
                    },
                }
                for parent, run, layers in self.event_logs
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


class TracedSimulator(Simulator):
    """A :class:`Simulator` whose callbacks each run inside a span.

    Instantiated by the program itself (the driver calls ``Simulator(...)``
    with its own arguments), hence the tracer arrives as a class attribute
    of the per-trace subclass :func:`traced` builds.
    """

    tracer: Tracer

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._layers: Dict[str, Tuple[array, array]] = {}
        self._query_layer = (
            SQUIRREL_QUERY_LAYER if self.tracer.system == "squirrel" else "core.query"
        )
        self._log_index: Optional[int] = None

    def _wrap(self, callback: Callable[[], Any], label: str) -> Callable[[], Any]:
        label_class = label.partition(":")[0]
        if label_class == "query":
            layer = self._query_layer
        else:
            layer = EVENT_LAYERS.get(label_class, f"unknown.{label_class}")
        columns = self._layers.get(layer)
        if columns is None:
            columns = self._layers[layer] = (array("d"), array("d"))
        start, end, clock = columns[0].append, columns[1].append, perf_counter

        def traced_callback() -> None:
            start(clock())
            callback()
            end(clock())

        return traced_callback

    def call_every(self, period, callback, start=None, label=""):  # type: ignore[override]
        return super().call_every(period, self._wrap(callback, label), start=start, label=label)

    def at(self, time, callback, label=""):  # type: ignore[override]
        # PeriodicHandle re-arms itself through at(); its callback was
        # already wrapped by call_every.
        if not isinstance(getattr(callback, "__self__", None), PeriodicHandle):
            callback = self._wrap(callback, label)
        return super().at(time, callback, label=label)

    def schedule_trace(self, times, callback, label="trace", **kwargs):  # type: ignore[override]
        with self.tracer.span("sim.schedule_trace"):
            super().schedule_trace(times, self._wrap(callback, label), label=label, **kwargs)

    def run(self, until=None):  # type: ignore[override]
        tracer = self.tracer
        with tracer.span("sim.run"):
            if self._log_index is None:
                self._log_index = len(tracer.event_logs)
                tracer.event_logs.append((tracer.current(), tracer.run_id, self._layers))
            return super().run(until)


def _timed(cls: type, method: str, span_name: str, tracer: Tracer) -> type:
    """A subclass of ``cls`` whose ``method`` runs inside ``span_name``."""
    original = getattr(cls, method)

    def timed(self: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span(span_name):
            return original(self, *args, **kwargs)

    return type(f"Traced{cls.__name__}", (cls,), {method: timed})


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Hand the traced subclasses to the experiment driver for one block."""
    replacements = {
        "Simulator": type("TracedSimulator", (TracedSimulator,), {"tracer": tracer}),
        "Topology": _timed(driver.Topology, "__init__", "network.topology_build", tracer),
        "QueryGenerator": _timed(
            driver.QueryGenerator, "generate_trace", "workload.generate_trace", tracer
        ),
        "ClientAssigner": _timed(
            driver.ClientAssigner, "assign_trace", "workload.assign_trace", tracer
        ),
        "FlowerCDN": _timed(driver.FlowerCDN, "bootstrap", "core.bootstrap", tracer),
        "Squirrel": _timed(driver.Squirrel, "bootstrap", "baselines.squirrel_bootstrap", tracer),
    }
    originals = {name: getattr(driver, name) for name in replacements}
    for name, replacement in replacements.items():
        setattr(driver, name, replacement)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(driver, name, original)
