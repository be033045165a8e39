"""Reference for the packed-summary peer view (``repro.core.columns``).

``ColumnarView`` keeps Bloom summaries as packed ints and answers a probe
with one precomputed mask; :func:`mask_for` derives that mask from the
double-hashing definition without the shared memo, and
:func:`entries_maybe_containing` filters object-form entries one membership
test at a time.  :func:`export_columns` is a view's entries as the columns
``ColumnarView.seed_from`` re-bases in place.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

from repro.core.columns import ColumnarView, ViewColumn
from repro.datastructures.aged_view import AgedEntry
from repro.datastructures.bloom import BloomFilter


def mask_for(num_bits: int, num_hashes: int, item: str) -> int:
    """OR-mask of ``item``'s bit positions in a ``num_bits`` / ``num_hashes`` filter:
    Kirsch–Mitzenmacher double hashing over the two halves of a 16-byte
    BLAKE2b digest, the second forced odd."""
    digest = hashlib.blake2b(item.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    mask = 0
    for i in range(num_hashes):
        mask |= 1 << ((h1 + i * h2) % num_bits)
    return mask


def entries_maybe_containing(
    entries: Iterable[AgedEntry[BloomFilter]], item: str
) -> List[AgedEntry[BloomFilter]]:
    """The entries whose Bloom payload may contain ``item``, in order; entries
    with no payload are skipped."""
    return [entry for entry in entries if entry.payload is not None and item in entry.payload]


def export_columns(view: ColumnarView) -> List[ViewColumn]:
    """Every entry of ``view`` as ``(contact, age, packed_summary)``, in view order."""
    return [
        (entry.contact, entry.age, None if entry.payload is None else entry.payload._bits)
        for entry in view.entries()
    ]
