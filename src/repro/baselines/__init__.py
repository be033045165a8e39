"""Baseline P2P web-cache systems used for comparison.

The paper compares Flower-CDN against Squirrel (Iyer, Rowstron, Druschel,
PODC 2002) in its *directory* variant: for every object, the DHT node whose
identifier is closest to the hash of the object's URL stores a small
directory of pointers to recent downloaders; every query is routed through
the DHT to that node, which redirects the client to one of the downloaders.
"""

from repro.baselines.squirrel import Squirrel

__all__ = ["Squirrel"]
