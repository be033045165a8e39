"""References for the overlays' identifier searches.

``IdSpace.closest_in_sorted`` bisects a sorted routing table for the
identifier numerically closest to a key; :func:`closest_to` is the plain
minimum over every candidate it is tested against.  :func:`successor_of` is
the plain scan for the live node a Chord route must end at.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdSpace


def closest_to(idspace: IdSpace, key: int, candidates: Sequence[int]) -> int:
    """The candidate numerically closest to ``key`` on the ring.

    Ties are broken clockwise (the candidate reachable by the smaller
    clockwise distance from the key), then by smaller identifier, so the
    result is deterministic.
    """
    if not candidates:
        raise ValueError("candidates must not be empty")
    size = idspace.size

    def rank(candidate: int) -> tuple:
        clockwise = (candidate - key) % size
        return (min(clockwise, size - clockwise), clockwise, candidate)

    return min(candidates, key=rank)


def successor_of(ring: ChordRing, identifier: int) -> Optional[int]:
    """First live node clockwise from ``identifier`` (inclusive), or ``None``:
    the node a converged Chord ring delivers a key to."""
    live = ring.live_ids()
    if not live:
        return None
    return next((node for node in live if node >= identifier), live[0])
