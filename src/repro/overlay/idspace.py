"""Circular identifier-space arithmetic.

DHT identifiers live on a ring of size ``2**m`` ("peer identifiers are chosen
from an identifier space S = [1 .. 2^m - 1] where m is the ID length in
bits", Section 3.1).  This module centralises the modular arithmetic every
other overlay component needs: clockwise distance, circular (numeric)
distance, interval membership and key hashing.
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

    @property
    def max_id(self) -> int:
        return self.size - 1

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

    def clockwise_distance(self, src: int, dst: int) -> int:
        """Distance travelled going clockwise (increasing IDs) from ``src`` to ``dst``."""
        return (dst - src) % self.size

    def circular_distance(self, a: int, b: int) -> int:
        """Numeric closeness on the ring: the shorter way around."""
        forward = (b - a) % self.size
        return min(forward, self.size - forward)

    def in_interval(
        self,
        value: int,
        start: int,
        end: int,
        inclusive_start: bool = False,
        inclusive_end: bool = False,
    ) -> bool:
        """True when ``value`` lies in the clockwise interval from ``start`` to ``end``.

        Handles wrap-around.  A zero-length open interval ``(x, x)`` is treated
        as the whole ring minus ``x``, which matches Chord's conventions.
        """
        value, start, end = self.normalize(value), self.normalize(start), self.normalize(end)
        if start == end:
            if inclusive_start or inclusive_end:
                return value == start
            return value != start
        if inclusive_start and value == start:
            return True
        if inclusive_end and value == end:
            return True
        if value == start or value == end:
            return False
        return self.clockwise_distance(start, value) < self.clockwise_distance(start, end)

    def closest_to(self, key: int, candidates: "list[int]") -> int:
        """Return the candidate numerically closest to ``key`` on the ring.

        Ties are broken clockwise (the candidate reachable by the smaller
        clockwise distance from the key), then by smaller identifier, so the
        result is deterministic.
        """
        if not candidates:
            raise ValueError("candidates must not be empty")
        return min(
            candidates,
            key=lambda c: (
                self.circular_distance(key, c),
                self.clockwise_distance(key, c),
                c,
            ),
        )

    def closest_in_sorted(self, key: int, sorted_ids: Sequence[int]) -> int:
        """:meth:`closest_to` for an ascending list of distinct ids, by bisection.

        The numerically closest id is one of the key's two ring neighbours in
        the list: every other id is strictly further both ways round.  On a
        distance tie :meth:`closest_to` prefers the smaller clockwise
        distance, which is the clockwise neighbour.
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
