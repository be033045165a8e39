"""Underlying network model: latency topology, localities and delivery.

The paper builds its P2P overlays on top of a BRITE-generated Internet
topology of 5000 nodes with link latencies between 10 and 500 ms, split into
``k`` non-uniformly populated network localities.  This package provides the
equivalent synthetic substrate:

* :class:`repro.network.topology.Topology` — hosts placed in clusters of a
  latency plane, one cluster per locality; pairwise latencies in
  [10, 500] ms, low inside a cluster, memoised per host pair.
* :class:`repro.network.latency.LatencyModel` — the query/gossip message
  delay oracle used by the simulator.
* :class:`repro.network.reachability.ReachabilityModel` — the message
  delivery gate (partitions, outages, link loss) consulted by the system
  for every protocol interaction.
"""

from repro.network.latency import LatencyModel
from repro.network.reachability import (
    MESSAGE_KINDS,
    DeliveryStats,
    HostOutage,
    LinkLoss,
    LocalityPartition,
    ReachabilityModel,
)
from repro.network.topology import Topology, TopologyConfig

__all__ = [
    "Topology",
    "TopologyConfig",
    "LatencyModel",
    "MESSAGE_KINDS",
    "DeliveryStats",
    "ReachabilityModel",
    "LocalityPartition",
    "HostOutage",
    "LinkLoss",
]
