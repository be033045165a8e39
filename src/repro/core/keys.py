"""Engineered D-ring identifiers (Section 3.1).

A D-ring peer ID of ``m = m1 + m2`` bits is the concatenation of a *website
ID* (the ``m2`` high-order bits, obtained by hashing the website's URL) and a
*locality ID* (the ``m1`` low-order bits, the locality number in ``[0, k)``).
Search keys are built the same way, so the standard DHT lookup for the key
``websiteID(ws) || localityID(loc)`` lands exactly on the directory peer
``d(ws, loc)``, and the directory peers of one website occupy consecutive
identifiers on the ring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from repro.overlay.idspace import IdRange, IdSpace


@dataclass(frozen=True)
class DRingKey:
    """A decoded D-ring identifier."""

    website_id: int
    locality_id: int
    raw: int
    #: replica index within the (website, locality) pair; always 0 for the
    #: basic scheme, meaningful only with the Section 5.3 scaling-up extension
    replica_id: int = 0

    def __int__(self) -> int:
        return self.raw


class KeyScheme:
    """Encodes and decodes D-ring identifiers for a given bit layout.

    The basic layout is ``websiteID || localityID`` (Section 3.1).  Section
    5.3's scaling-up extension appends ``replica_bits`` extra low-order bits so
    several directory peers can serve the same (website, locality) pair while
    preserving the website and locality identification; with the default
    ``replica_bits = 0`` the basic scheme is used.
    """

    __slots__ = (
        "_website_bits",
        "_locality_bits",
        "_replica_bits",
        "_idspace",
        "_decode_cache",
        "_website_id_cache",
    )

    def __init__(self, website_bits: int, locality_bits: int, replica_bits: int = 0) -> None:
        if website_bits <= 0 or locality_bits <= 0:
            raise ValueError("website_bits and locality_bits must be positive")
        if replica_bits < 0:
            raise ValueError("replica_bits must be non-negative")
        self._website_bits = website_bits
        self._locality_bits = locality_bits
        self._replica_bits = replica_bits
        self._idspace = IdSpace(website_bits + locality_bits + replica_bits)
        self._decode_cache: dict = {}
        self._website_id_cache: dict = {}

    # -- properties ----------------------------------------------------------

    @property
    def website_bits(self) -> int:
        return self._website_bits

    @property
    def locality_bits(self) -> int:
        return self._locality_bits

    @property
    def replica_bits(self) -> int:
        return self._replica_bits

    @property
    def idspace(self) -> IdSpace:
        return self._idspace

    @property
    def max_localities(self) -> int:
        return 1 << self._locality_bits

    @property
    def max_websites(self) -> int:
        return 1 << self._website_bits

    @property
    def max_replicas(self) -> int:
        """Directory peers allowed per (website, locality) pair (Section 5.3)."""
        return 1 << self._replica_bits

    # -- hashing and encoding ----------------------------------------------------

    def website_id(self, website_url: str) -> int:
        """Hash a website URL into the ``m2``-bit website-ID subspace."""
        cached = self._website_id_cache.get(website_url)
        if cached is not None:
            return cached
        digest = hashlib.sha1(website_url.encode("utf-8")).digest()
        website_id = int.from_bytes(digest, "big") % self.max_websites
        if len(self._website_id_cache) < 1 << 16:
            self._website_id_cache[website_url] = website_id
        return website_id

    def encode(self, website_id: int, locality: int, replica: int = 0) -> int:
        """Concatenate website, locality (and replica) IDs into a peer ID / search key."""
        if not 0 <= website_id < self.max_websites:
            raise ValueError(f"website_id {website_id} outside {self._website_bits}-bit subspace")
        if not 0 <= locality < self.max_localities:
            raise ValueError(f"locality {locality} outside {self._locality_bits}-bit subspace")
        if not 0 <= replica < self.max_replicas:
            raise ValueError(f"replica {replica} outside {self._replica_bits}-bit subspace")
        base = (website_id << self._locality_bits) | locality
        return (base << self._replica_bits) | replica

    def key_for(self, website_url: str, locality: int, replica: int = 0) -> int:
        """The search key (= directory peer ID) for ``(website, locality[, replica])``."""
        return self.encode(self.website_id(website_url), locality, replica)

    def replica_ids_for(self, website_url: str, locality: int) -> List[int]:
        """All directory identifiers of one (website, locality) pair (Section 5.3)."""
        website_id = self.website_id(website_url)
        return [
            self.encode(website_id, locality, replica) for replica in range(self.max_replicas)
        ]

    # -- decoding ---------------------------------------------------------------

    def decode(self, identifier: int) -> DRingKey:
        # Pure function of the identifier; routing decodes the same handful of
        # directory IDs on every hop, so memoise the immutable results.
        cached = self._decode_cache.get(identifier)
        if cached is not None:
            return cached
        self._idspace.validate(identifier)
        replica = identifier & (self.max_replicas - 1)
        base = identifier >> self._replica_bits
        key = DRingKey(
            website_id=base >> self._locality_bits,
            locality_id=base & (self.max_localities - 1),
            raw=identifier,
            replica_id=replica,
        )
        if len(self._decode_cache) < 1 << 16:
            self._decode_cache[identifier] = key
        return key

    def website_id_of(self, identifier: int) -> int:
        return self.decode(identifier).website_id

    def locality_of(self, identifier: int) -> int:
        return self.decode(identifier).locality_id

    def same_website(self, a: int, b: int) -> bool:
        """True when two identifiers carry the same website ID."""
        return self.website_id_of(a) == self.website_id_of(b)

    def website_constraint(self, key: int) -> IdRange:
        """Algorithm 2's constraint, "same website ID as the key".

        The website ID is an identifier's high-order bits, so the identifiers
        sharing it are one contiguous range — returned as such, which lets a
        node bisect its routing table for them.
        """
        shift = self._locality_bits + self._replica_bits
        low = (self._idspace.validate(key) >> shift) << shift
        return IdRange(low, low + (1 << shift))

    def directory_ids_for(self, website_url: str, num_localities: int) -> List[int]:
        """All directory peer IDs of one website, in locality order (Figure 3)."""
        if not 0 < num_localities <= self.max_localities:
            raise ValueError(
                f"num_localities must be in (0, {self.max_localities}], got {num_localities}"
            )
        website_id = self.website_id(website_url)
        return [self.encode(website_id, loc) for loc in range(num_localities)]
