"""Bloom filters for content and directory summaries.

The paper follows Fan et al.'s "Summary Cache" design: each content peer
summarises its content list as a Bloom filter of ``8 * nb_ob`` bits (Table 1,
*summary size*), and each directory peer keeps Bloom-filter summaries of its
neighbours' directory indexes.  Summaries may report false positives (the
query is then redirected to a peer that does not actually hold the object,
which Flower-CDN handles as a redirection failure) but never false negatives.

The implementation is pure Python over an ``int`` bit mask with double
hashing (Kirsch & Mitzenmacher), which keeps it fast enough for simulations
with tens of thousands of summaries while remaining dependency-free.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache
from typing import Dict, Iterable


def _hash_pair(item: str) -> tuple[int, int]:
    """Derive two independent 64-bit hashes of ``item`` for double hashing."""
    digest = hashlib.blake2b(item.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # force odd so strides cover the filter
    return h1, h2


#: Memo of (num_bits, num_hashes, item) -> OR-mask of the item's bit positions.
#: Simulations probe the same object identifiers against thousands of filters
#: sharing one geometry, so the mask — which fully determines add/contains —
#: is computed once per item instead of once per probe.  Bounded so synthetic
#: stress loads cannot grow it without limit.
_MASK_CACHE: dict[tuple[int, int, str], int] = {}
_MASK_CACHE_MAX = 1 << 20


def _mask_for(num_bits: int, num_hashes: int, item: str) -> int:
    key = (num_bits, num_hashes, item)
    try:
        return _MASK_CACHE[key]
    except KeyError:
        pass
    h1, h2 = _hash_pair(item)
    mask = 0
    for i in range(num_hashes):
        mask |= 1 << ((h1 + i * h2) % num_bits)
    if len(_MASK_CACHE) >= _MASK_CACHE_MAX:
        _MASK_CACHE.clear()
    _MASK_CACHE[key] = mask
    return mask


class MaskTable(Dict[str, int]):
    """``table[item]`` is ``_mask_for(num_bits, num_hashes, item)`` for one geometry.

    A hot path that probes one geometry all run long binds its table once and
    pays a single string-keyed lookup per mask instead of a call and a
    three-part key.  Misses fill from the shared memo, so the masks are the
    very ints :class:`BloomFilter` ORs in; bounded the same way.
    """

    __slots__ = ("_num_bits", "_num_hashes")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        super().__init__()
        self._num_bits = num_bits
        self._num_hashes = num_hashes

    def __missing__(self, item: str) -> int:
        if len(self) >= _MASK_CACHE_MAX:
            self.clear()
        mask = self[item] = _mask_for(self._num_bits, self._num_hashes, item)
        return mask


@lru_cache(maxsize=8)
def mask_table(num_bits: int, num_hashes: int) -> MaskTable:
    """The :class:`MaskTable` of a geometry, shared by everyone who asks for it."""
    return MaskTable(num_bits, num_hashes)


class BloomFilter:
    """A fixed-size Bloom filter over string keys.

    Args:
        num_bits: size of the bit array (the paper uses ``8 * nb_ob`` bits).
        num_hashes: number of hash functions; if omitted, the optimum
            ``(num_bits / expected_items) * ln 2`` is used when
            ``expected_items`` is given, else 4.
        expected_items: expected number of inserted keys, used only to pick
            a sensible default ``num_hashes``.
    """

    def __init__(
        self,
        num_bits: int,
        num_hashes: int | None = None,
        expected_items: int | None = None,
    ) -> None:
        if num_bits <= 0:
            raise ValueError(f"num_bits must be positive, got {num_bits}")
        if num_hashes is None:
            if expected_items and expected_items > 0:
                num_hashes = max(1, round((num_bits / expected_items) * math.log(2)))
            else:
                num_hashes = 4
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._bits = 0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_items(
        cls, items: Iterable[str], num_bits: int, num_hashes: int | None = None
    ) -> "BloomFilter":
        bloom = cls(num_bits=num_bits, num_hashes=num_hashes)
        bloom.update(items)
        return bloom

    @classmethod
    def from_bits(cls, bits: int, num_bits: int, num_hashes: int) -> "BloomFilter":
        """Wrap an already packed bit array (the form peers gossip)."""
        bloom = cls(num_bits=num_bits, num_hashes=num_hashes)
        bloom._bits = bits
        return bloom

    # -- core operations -------------------------------------------------------

    def add(self, item: str) -> None:
        self._bits |= _mask_for(self._num_bits, self._num_hashes, item)

    def update(self, items: Iterable[str]) -> None:
        num_bits, num_hashes = self._num_bits, self._num_hashes
        bits = self._bits
        for item in items:
            bits |= _mask_for(num_bits, num_hashes, item)
        self._bits = bits

    def __contains__(self, item: str) -> bool:
        mask = _mask_for(self._num_bits, self._num_hashes, item)
        return self._bits & mask == mask

    def clear(self) -> None:
        self._bits = 0

    # -- introspection ---------------------------------------------------------

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set; drives the false-positive probability."""
        return self._bits.bit_count() / self._num_bits

    # -- copy and comparison -----------------------------------------------------

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self._num_bits, self._num_hashes)
        clone._bits = self._bits
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self._num_bits == other._num_bits
            and self._num_hashes == other._num_hashes
            and self._bits == other._bits
        )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self._num_bits}, hashes={self._num_hashes}, "
            f"fill={self.fill_ratio:.3f})"
        )
