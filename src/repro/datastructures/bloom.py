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
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List

if TYPE_CHECKING:
    from repro.datastructures.aged_view import AgedEntry


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


def mask_for(num_bits: int, num_hashes: int, item: str) -> int:
    """OR-mask of ``item``'s bit positions for the given filter geometry.

    Public entry point for packed-summary backends (``repro.core.columns``)
    that operate on raw bit masks: sharing the memoised table with
    :class:`BloomFilter` guarantees bit-identical summaries across backends.
    """
    return _mask_for(num_bits, num_hashes, item)


class MaskTable(Dict[str, int]):
    """``table[item]`` is ``mask_for(num_bits, num_hashes, item)`` for one geometry.

    A hot path that probes one geometry all run long binds its table once and
    pays a single string-keyed lookup per mask instead of a call and a
    three-part key.  Misses fill from the shared memo, so the masks are the
    very ints :func:`mask_for` returns; bounded the same way.
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


def entries_maybe_containing(
    entries: "Iterable[AgedEntry[BloomFilter]]", item: str
) -> "List[AgedEntry[BloomFilter]]":
    """Filter aged-view entries whose Bloom payload may contain ``item``.

    Hot-path helper for local query resolution: all summaries in one overlay
    share a geometry, so the item's probe mask is computed once per distinct
    ``(num_bits, num_hashes)`` encountered and compared against each filter's
    bit set directly, instead of re-deriving positions per probe.  Entries
    with no payload are skipped.
    """
    result = []
    mask = 0
    geom_bits = geom_hashes = -1
    for entry in entries:
        payload = entry.payload
        if payload is None:
            continue
        num_bits = payload._num_bits
        num_hashes = payload._num_hashes
        if num_bits != geom_bits or num_hashes != geom_hashes:
            geom_bits, geom_hashes = num_bits, num_hashes
            mask = _mask_for(num_bits, num_hashes, item)
        if payload._bits & mask == mask:
            result.append(entry)
    return result


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
        self._count = 0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def for_capacity(cls, expected_items: int, bits_per_item: int = 8) -> "BloomFilter":
        """Build a filter sized like the paper's summaries (8 bits per object)."""
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if bits_per_item <= 0:
            raise ValueError("bits_per_item must be positive")
        return cls(num_bits=expected_items * bits_per_item, expected_items=expected_items)

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

    def _positions(self, item: str) -> Iterator[int]:
        h1, h2 = _hash_pair(item)
        for i in range(self._num_hashes):
            yield (h1 + i * h2) % self._num_bits

    def add(self, item: str) -> None:
        self._bits |= _mask_for(self._num_bits, self._num_hashes, item)
        self._count += 1

    def update(self, items: Iterable[str]) -> None:
        num_bits, num_hashes = self._num_bits, self._num_hashes
        bits = self._bits
        count = self._count
        for item in items:
            bits |= _mask_for(num_bits, num_hashes, item)
            count += 1
        self._bits = bits
        self._count = count

    def __contains__(self, item: str) -> bool:
        mask = _mask_for(self._num_bits, self._num_hashes, item)
        return self._bits & mask == mask

    def might_contain(self, item: str) -> bool:
        """Alias of ``in`` that reads better at query-processing call sites."""
        return item in self

    def clear(self) -> None:
        self._bits = 0
        self._count = 0

    # -- introspection ---------------------------------------------------------

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def approximate_items(self) -> int:
        """Number of ``add`` calls (duplicates counted); diagnostic only."""
        return self._count

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set; drives the false-positive probability."""
        return self._bits.bit_count() / self._num_bits

    def false_positive_probability(self) -> float:
        """Estimated false-positive probability given the current fill ratio."""
        return self.fill_ratio ** self._num_hashes

    def size_in_bytes(self) -> int:
        """Wire size of the filter, used for bandwidth accounting."""
        return (self._num_bits + 7) // 8

    # -- set operations ---------------------------------------------------------

    def _check_compatible(self, other: "BloomFilter") -> None:
        if self._num_bits != other._num_bits or self._num_hashes != other._num_hashes:
            raise ValueError("Bloom filters must share num_bits and num_hashes to be combined")

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Return a filter representing the union of both key sets."""
        self._check_compatible(other)
        result = BloomFilter(self._num_bits, self._num_hashes)
        result._bits = self._bits | other._bits
        result._count = self._count + other._count
        return result

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self._num_bits, self._num_hashes)
        clone._bits = self._bits
        clone._count = self._count
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
