"""Flower-CDN proper: D-ring, directory peers, content overlays and gossip.

The public entry point is :class:`repro.core.system.FlowerCDN`, which wires a
D-ring (one directory peer per website/locality pair) with gossip-maintained
content overlays on top of the simulation, network and DHT substrates.
"""

from repro.core.config import FlowerConfig, GossipConfig
from repro.core.keys import DRingKey, KeyScheme
from repro.core.dring import DRing
from repro.core.directory_peer import DirectoryEntry, DirectoryPeer
from repro.core.content_peer import ContentPeer, GossipMessage
from repro.core.system import FlowerCDN
from repro.core.churn import ChurnInjector
from repro.core.replication import ActiveReplicator, ReplicationConfig

__all__ = [
    "FlowerConfig",
    "GossipConfig",
    "DRingKey",
    "KeyScheme",
    "DRing",
    "DirectoryPeer",
    "DirectoryEntry",
    "ContentPeer",
    "GossipMessage",
    "FlowerCDN",
    "ChurnInjector",
    "ActiveReplicator",
    "ReplicationConfig",
]
