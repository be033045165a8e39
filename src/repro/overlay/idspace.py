"""Circular identifier-space arithmetic.

DHT identifiers live on a ring of size ``2**m`` ("peer identifiers are chosen
from an identifier space S = [1 .. 2^m - 1] where m is the ID length in
bits", Section 3.1).  This module centralises the modular arithmetic every
other overlay component needs: circular (numeric) distance, the closest
identifier to a key and key hashing.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class IdRange(NamedTuple):
    """The identifiers ``low <= id < high``: a routing constraint a sorted
    routing table answers by bisection."""

    low: int
    high: int


@dataclass(frozen=True)
class IdSpace:
    """An ``m``-bit circular identifier space."""

    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 256:
            raise ValueError(f"bits must be in [1, 256], got {self.bits}")

    @property
    def size(self) -> int:
        return 1 << self.bits

    def contains(self, identifier: int) -> bool:
        return 0 <= identifier < self.size

    def normalize(self, identifier: int) -> int:
        return identifier % self.size

    def validate(self, identifier: int) -> int:
        if not self.contains(identifier):
            raise ValueError(f"identifier {identifier} outside {self.bits}-bit space")
        return identifier

    # -- hashing -----------------------------------------------------------

    def hash_key(self, key: str) -> int:
        """Map an arbitrary string to an identifier (SHA-1 truncated to ``bits``)."""
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        value = int.from_bytes(digest, "big")
        return value % self.size

    # -- circular arithmetic -------------------------------------------------

    def circular_distance(self, a: int, b: int) -> int:
        """Numeric closeness on the ring: the shorter way around."""
        forward = (b - a) % self.size
        return min(forward, self.size - forward)

    def closest_in_sorted(self, key: int, sorted_ids: Sequence[int]) -> int:
        """The id of an ascending list of distinct ids numerically closest to
        ``key`` on the ring, by bisection.

        The numerically closest id is one of the key's two ring neighbours in
        the list: every other id is strictly further both ways round.  On a
        distance tie the smaller clockwise distance wins, which is the
        clockwise neighbour.  ``closest_to`` in ``tests/reference/overlay.py``
        is the plain minimum over all candidates it is tested against.
        """
        if not sorted_ids:
            raise ValueError("candidates must not be empty")
        size = self.size
        index = bisect_left(sorted_ids, key)
        clockwise = sorted_ids[index] if index < len(sorted_ids) else sorted_ids[0]
        counter = sorted_ids[index - 1]
        ahead = (clockwise - key) % size
        behind = (key - counter) % size
        return counter if min(behind, size - behind) < min(ahead, size - ahead) else clockwise
