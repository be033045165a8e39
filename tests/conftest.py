"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator


class RecordingSimulator(Simulator):
    """Records ``(label, first firing time)`` of every periodic activity."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.starts = []

    def call_every(self, period, callback, start=None, label=""):
        self.starts.append((label, start))
        return super().call_every(period, callback, start=start, label=label)


@pytest.fixture
def recording_simulator() -> type:
    """The :class:`RecordingSimulator` class, for tests that pick the seed."""
    return RecordingSimulator
