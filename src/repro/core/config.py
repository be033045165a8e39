"""Configuration of a Flower-CDN deployment / simulation.

The defaults reproduce Table 1 of the paper.  All durations are seconds of
simulation time, all sizes are bytes unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: seconds in one simulated minute / hour, used for readable defaults
MINUTE = 60.0
HOUR = 3600.0


@dataclass(frozen=True)
class GossipConfig:
    """Gossip parameters of the content overlays (Section 4.2, Table 1)."""

    #: interval between two gossip exchanges initiated by each content peer
    gossip_period_s: float = 30 * MINUTE
    #: maximum number of contacts in a content peer's view (Vgossip)
    view_size: int = 50
    #: number of view entries exchanged per gossip round (Lgossip)
    gossip_length: int = 10
    #: fraction of content-list changes that triggers a push to the directory
    push_threshold: float = 0.1
    #: interval between keepalive messages from content peers to their directory
    keepalive_period_s: float = 30 * MINUTE

    def __post_init__(self) -> None:
        if self.gossip_period_s <= 0:
            raise ValueError("gossip_period_s must be positive")
        if self.view_size <= 0:
            raise ValueError("view_size must be positive")
        if not 0 < self.gossip_length <= self.view_size:
            raise ValueError("gossip_length must satisfy 0 < Lgossip <= Vgossip")
        if not 0 < self.push_threshold <= 1:
            raise ValueError("push_threshold must be in (0, 1]")
        if self.keepalive_period_s <= 0:
            raise ValueError("keepalive_period_s must be positive")


#: age (in gossip periods) after which a directory entry is dead (Tdead)
DEAD_AGE = 4
#: bits reserved for the website ID (m2) of a D-ring identifier
WEBSITE_BITS = 29
#: Bloom-filter bits per object (Table 1: summary size = 8 * nb-ob bits)
SUMMARY_BITS_PER_OBJECT = 8
#: maximum providers a query tries after redirection failures
MAX_REDIRECTION_ATTEMPTS = 3

# Wire sizes for background-bandwidth accounting.  The paper accounts gossip
# and push traffic in bits per second per peer; these are the conventional
# field sizes each protocol message is built of.  Summary sizes follow from
# the Bloom-filter size.
HEADER_BYTES = 20
ADDRESS_BYTES = 6
AGE_BYTES = 4
OBJECT_ID_BYTES = 20


def summary_bytes(summary_bits: int) -> int:
    return (summary_bits + 7) // 8


def gossip_message_bytes(summary_bits: int, gossip_length: int) -> int:
    """Size of one gossip message: own summary + ``Lgossip`` view entries,
    each an address, an age and a summary."""
    summary = summary_bytes(summary_bits)
    return HEADER_BYTES + summary + gossip_length * (ADDRESS_BYTES + AGE_BYTES + summary)


def push_message_bytes(num_changes: int) -> int:
    return HEADER_BYTES + num_changes * OBJECT_ID_BYTES


def summary_refresh_bytes(summary_bits: int) -> int:
    return HEADER_BYTES + summary_bytes(summary_bits)


@dataclass(frozen=True)
class FlowerConfig:
    """Full Flower-CDN configuration (Table 1 defaults)."""

    # -- population --------------------------------------------------------
    num_websites: int = 100
    active_websites: int = 6
    objects_per_website: int = 500
    num_localities: int = 6
    max_content_overlay_size: int = 100  # Sco

    # -- identifier space ----------------------------------------------------
    #: bits reserved for the locality ID (m1); 2**m1 must be >= num_localities
    locality_bits: int = 3
    #: structured overlay the D-ring is embedded in: "chord" (the paper's
    #: evaluation) or "pastry" (the other substrate named in Section 3.1)
    dht_substrate: str = "chord"

    # -- gossip -------------------------------------------------------------------
    gossip: GossipConfig = field(default_factory=GossipConfig)

    # -- query processing --------------------------------------------------------
    #: where a content peer sends a query its view cannot resolve:
    #: "server" (default, what the paper's sensitivity to gossip parameters
    #: implies) or "directory" (ablation: fall back to the directory peer).
    content_miss_fallback: str = "server"
    #: optional bound on a content peer's cache (None = unbounded, the paper's
    #: assumption); when set, an LRU policy evicts the oldest objects.
    content_cache_capacity: int | None = None

    # -- simulation ----------------------------------------------------------------
    simulation_duration_s: float = 24 * HOUR
    metrics_window_s: float = HOUR

    def __post_init__(self) -> None:
        if self.num_websites <= 0:
            raise ValueError("num_websites must be positive")
        if not 0 < self.active_websites <= self.num_websites:
            raise ValueError("active_websites must be in (0, num_websites]")
        if self.objects_per_website <= 0:
            raise ValueError("objects_per_website must be positive")
        if self.num_localities <= 0:
            raise ValueError("num_localities must be positive")
        if self.max_content_overlay_size <= 0:
            raise ValueError("max_content_overlay_size must be positive")
        if 2 ** self.locality_bits < self.num_localities:
            raise ValueError(
                f"locality_bits={self.locality_bits} cannot encode {self.num_localities} localities"
            )
        if self.dht_substrate not in ("chord", "pastry"):
            raise ValueError("dht_substrate must be 'chord' or 'pastry'")
        if self.content_miss_fallback not in ("server", "directory"):
            raise ValueError("content_miss_fallback must be 'server' or 'directory'")
        if self.content_cache_capacity is not None and self.content_cache_capacity <= 0:
            raise ValueError("content_cache_capacity must be positive or None")
        if self.simulation_duration_s <= 0:
            raise ValueError("simulation_duration_s must be positive")
        if self.metrics_window_s <= 0:
            raise ValueError("metrics_window_s must be positive")

    # -- derived quantities ------------------------------------------------------

    @property
    def summary_bits(self) -> int:
        """Bloom-filter size for content and directory summaries."""
        return SUMMARY_BITS_PER_OBJECT * self.objects_per_website

    @property
    def num_directory_peers(self) -> int:
        """D-ring size in its stable structure: one peer per (website, locality)."""
        return self.num_websites * self.num_localities

    def table1(self) -> Dict[str, object]:
        """The Table 1 parameter summary as printable rows."""
        gossip = self.gossip
        return {
            "Nb of localities (k)": self.num_localities,
            "Nb of websites (|W|)": self.num_websites,
            "Max content-overlay size (Sco)": self.max_content_overlay_size,
            "Nb of objects/website (nb-ob)": self.objects_per_website,
            "Summary size (bits)": self.summary_bits,
            "Push threshold": gossip.push_threshold,
            "View size (Vgossip)": gossip.view_size,
            "Gossip period (Tgossip, s)": gossip.gossip_period_s,
            "Gossip length (Lgossip)": gossip.gossip_length,
            "Simulation duration (s)": self.simulation_duration_s,
        }
