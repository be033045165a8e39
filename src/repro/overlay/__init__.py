"""Structured overlay substrate: identifier space, Chord ring and KBR routing.

Flower-CDN's D-ring "can be integrated into any existing structured overlay
based on a standard DHT"; the paper simulates Chord.  This package provides
that substrate:

* :mod:`repro.overlay.idspace` — circular identifier arithmetic;
* :mod:`repro.overlay.node` — a Chord node with finger table, successor list
  and the ``local_lookup`` primitives of Algorithms 1 and 2;
* :mod:`repro.overlay.chord` — the ring: join, leave, stabilisation;
* :mod:`repro.overlay.router` — the key-based routing API (``route(key, msg)``)
  with hop and latency accounting, supporting both the standard policy and
  the website-constrained policy (an identifier-range constraint) D-ring uses.
"""

from repro.overlay.idspace import IdSpace
from repro.overlay.node import ChordNode
from repro.overlay.chord import ChordRing
from repro.overlay.pastry import PastryNode, PastryRing
from repro.overlay.router import KBRRouter, RouteResult, RoutingPolicy

__all__ = [
    "IdSpace",
    "ChordNode",
    "ChordRing",
    "PastryNode",
    "PastryRing",
    "KBRRouter",
    "RouteResult",
    "RoutingPolicy",
]
