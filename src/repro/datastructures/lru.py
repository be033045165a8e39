"""A small LRU cache.

The paper assumes content peers have enough storage to never evict during an
experiment, but it lists cache expiration and replacement policies as future
work (Section 8).  The reproduction exposes an optional LRU replacement
policy on content peers so the extension can be exercised by tests and the
churn/ablation experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded mapping evicting the least-recently-used entry on overflow."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self._capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert ``key``; returns the evicted ``(key, value)`` pair if any."""
        if key in self._data:
            self._data.move_to_end(key)
            self._data[key] = value
            return None
        self._data[key] = value
        if self._capacity is not None and len(self._data) > self._capacity:
            return self._data.popitem(last=False)
        return None
