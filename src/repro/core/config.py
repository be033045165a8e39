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
    #: age (in gossip periods) after which a directory entry / view entry is dead
    dead_age: int = 4

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
        if self.dead_age <= 0:
            raise ValueError("dead_age must be positive")


@dataclass(frozen=True)
class MessageSizeModel:
    """Wire sizes used for background-bandwidth accounting.

    The paper accounts gossip and push traffic in bits per second per peer;
    these constants define how large each protocol message is.  Summary sizes
    are derived from the Bloom-filter configuration (8 bits per object,
    Table 1), the rest are conventional field sizes.
    """

    header_bytes: int = 20
    address_bytes: int = 6
    age_bytes: int = 4
    object_id_bytes: int = 20

    def summary_bytes(self, summary_bits: int) -> int:
        return (summary_bits + 7) // 8

    def view_entry_bytes(self, summary_bits: int) -> int:
        return self.address_bytes + self.age_bytes + self.summary_bytes(summary_bits)

    def gossip_message_bytes(self, summary_bits: int, gossip_length: int) -> int:
        """Size of one gossip message: own summary + ``Lgossip`` view entries."""
        return (
            self.header_bytes
            + self.summary_bytes(summary_bits)
            + gossip_length * self.view_entry_bytes(summary_bits)
        )

    def push_message_bytes(self, num_changes: int) -> int:
        return self.header_bytes + num_changes * self.object_id_bytes

    def keepalive_bytes(self) -> int:
        return self.header_bytes

    def summary_refresh_bytes(self, summary_bits: int) -> int:
        return self.header_bytes + self.summary_bytes(summary_bits)


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
    #: bits reserved for the website ID (m2)
    website_bits: int = 29
    #: structured overlay the D-ring is embedded in: "chord" (the paper's
    #: evaluation) or "pastry" (the other substrate named in Section 3.1)
    dht_substrate: str = "chord"

    # -- summaries -------------------------------------------------------------
    #: Bloom-filter bits per object (Table 1: summary size = 8 * nb-ob bits)
    summary_bits_per_object: int = 8

    # -- gossip -------------------------------------------------------------------
    gossip: GossipConfig = field(default_factory=GossipConfig)
    message_sizes: MessageSizeModel = field(default_factory=MessageSizeModel)

    # -- query processing --------------------------------------------------------
    #: where a content peer sends a query its view cannot resolve:
    #: "server" (default, what the paper's sensitivity to gossip parameters
    #: implies) or "directory" (ablation: fall back to the directory peer).
    content_miss_fallback: str = "server"
    #: maximum providers tried after redirection failures before giving up
    max_redirection_attempts: int = 3
    #: latency charged for a redirection/directory attempt that times out
    #: because the target is unreachable (only relevant with a reachability
    #: model attached)
    redirect_timeout_ms: float = 500.0
    #: initial suspicion backoff after a contact times out: the contact is
    #: skipped during redirection for this long (doubling per consecutive
    #: timeout)
    suspicion_backoff_s: float = 60.0
    #: upper bound of the doubling suspicion backoff
    suspicion_backoff_max_s: float = 1800.0
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
        if self.website_bits <= 0:
            raise ValueError("website_bits must be positive")
        if self.dht_substrate not in ("chord", "pastry"):
            raise ValueError("dht_substrate must be 'chord' or 'pastry'")
        if self.summary_bits_per_object <= 0:
            raise ValueError("summary_bits_per_object must be positive")
        if self.content_miss_fallback not in ("server", "directory"):
            raise ValueError("content_miss_fallback must be 'server' or 'directory'")
        if self.max_redirection_attempts <= 0:
            raise ValueError("max_redirection_attempts must be positive")
        if self.redirect_timeout_ms <= 0:
            raise ValueError("redirect_timeout_ms must be positive")
        if self.suspicion_backoff_s <= 0:
            raise ValueError("suspicion_backoff_s must be positive")
        if self.suspicion_backoff_max_s < self.suspicion_backoff_s:
            raise ValueError(
                "suspicion_backoff_max_s must be >= suspicion_backoff_s"
            )
        if self.content_cache_capacity is not None and self.content_cache_capacity <= 0:
            raise ValueError("content_cache_capacity must be positive or None")
        if self.simulation_duration_s <= 0:
            raise ValueError("simulation_duration_s must be positive")
        if self.metrics_window_s <= 0:
            raise ValueError("metrics_window_s must be positive")

    # -- derived quantities ------------------------------------------------------

    @property
    def id_bits(self) -> int:
        """Total identifier length ``m = m1 + m2``."""
        return self.locality_bits + self.website_bits

    @property
    def summary_bits(self) -> int:
        """Bloom-filter size for content and directory summaries."""
        return self.summary_bits_per_object * self.objects_per_website

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

