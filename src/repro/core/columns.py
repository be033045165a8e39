"""Array-backed columnar peer views.

Modelling every view entry as a frozen
:class:`~repro.datastructures.aged_view.AgedEntry` carrying a
:class:`~repro.datastructures.bloom.BloomFilter` makes each peer rebuild its
whole view once per gossip period just to age it, and chase two attributes
per entry on every query probe; at paper scale those per-object costs
dominated the run.  :class:`ColumnarView` keeps the *same protocol state* in
columns (contact strings, birth stamps, packed summaries) under an epoch
clock: ageing the whole view is one integer increment, a gossip merge is a
batched pass over the message columns, and a query probe is one precomputed
Bloom mask compared against a column of fixed-width ints.

:class:`~repro.datastructures.aged_view.AgedView` stays in the tree as the
reference model; ``tests/test_kernel_equivalence.py`` drives both through
random operation sequences in lockstep.  What the columns preserve exactly:

* dict insertion order — replacing an entry keeps its position, new entries
  append, trims rebuild in ``(age, contact)`` order — so subset sampling
  sees candidates in the same order;
* random draws — :func:`~repro.sim.rng.sample_rows` consumes the draw
  sequence of ``rng.sample``, which depends only on the candidate *count*;
* tie-breaks — ``(age, contact)`` orderings compare the same ints and the
  same contact strings;
* Bloom bits — packed summaries are the integers the filters hold (masks
  come from the same memoised table), and Python ints are immutable, which
  is precisely the snapshot semantics a gossiped summary needs.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datastructures.aged_view import AgedEntry
from repro.datastructures.bloom import BloomFilter
from repro.sim.rng import sample_rows

__all__ = ["SUMMARY_NUM_HASHES", "ViewColumn", "ColumnarView"]

#: Content and directory summaries are built with ``BloomFilter.from_items``
#: without an explicit hash count, which resolves to this default; the packed
#: masks must use the same geometry to stay bit-identical.
SUMMARY_NUM_HASHES = 4

#: One materialised view column: ``(contact, age, packed_summary_or_None)``.
#: Ages are concretised when a column leaves its view (gossip subsets, view
#: seeding) because sender and receiver run different epoch clocks.
ViewColumn = Tuple[str, int, Optional[int]]


class ColumnarView:
    """A bounded peer view stored as sortable rows under an epoch clock.

    Mirrors :class:`~repro.datastructures.aged_view.AgedView` semantics for
    Bloom-payload views: an entry's age is ``clock - stamp``, so the periodic
    "age everything" pass is a single increment of :attr:`clock` instead of a
    dict rebuild.  Row order replicates dict insertion order exactly (see the
    module docstring).

    Each row is a *mutable* ``[negated_stamp, contact, payload]`` list shared
    between the ordered row list and the contact index, so in-place updates
    never touch the index, list comparison sorts rows by exactly the
    ``(age, contact)`` trim/tie-break key at C speed (contacts are unique, so
    a comparison never reaches the payload element), and a capacity trim is a
    bare ``list.sort`` plus one truncation — no column rebuilds.

    Most query probes find nothing, so the view also keeps ``_union``, a
    *superset* of the OR of its rows' payloads, and :meth:`probe` answers a
    mask the union does not cover without looking at a row.  Every payload
    written is OR-ed in (a replaced snapshot's bits may stay: still a
    superset); only a row leaving with a payload — eviction by a trim,
    :meth:`remove` — could make the union needlessly wide, so that drops it
    to ``None`` ("unknown", and nothing to maintain) until a probe scans the
    rows in vain and rebuilds it.
    """

    __slots__ = (
        "capacity",
        "num_bits",
        "num_hashes",
        "clock",
        "_rows",
        "_pos",
        "_union",
    )

    def __init__(self, capacity: Optional[int], num_bits: int, num_hashes: int) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.clock = 0
        #: rows in view order; row = [negated_stamp, contact, payload]
        self._rows: List[list] = []
        #: contact -> its row object (NOT its position, which sorts shift)
        self._pos: Dict[str, list] = {}
        #: superset OR of the rows' payloads; None: unknown (see the class docstring)
        self._union: Optional[int] = 0

    # -- container protocol (AgedView-compatible) ---------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, contact: str) -> bool:
        return contact in self._pos

    def __iter__(self) -> Iterator[AgedEntry]:
        return iter(self.entries())

    def get(self, contact: str) -> Optional[AgedEntry]:
        row = self._pos.get(contact)
        if row is None:
            return None
        return self._entry_of(row)

    def entries(self) -> Sequence[AgedEntry]:
        """Materialised object-form entries (diagnostics and cold paths only)."""
        return tuple(self._entry_of(row) for row in self._rows)

    def _entry_of(self, row: list) -> AgedEntry:
        return AgedEntry(
            contact=row[1],
            age=self.clock + row[0],
            payload=self._materialize(row[2]),
        )

    def _materialize(self, bits: Optional[int]) -> Optional[BloomFilter]:
        if bits is None:
            return None
        return BloomFilter.from_bits(bits, self.num_bits, self.num_hashes)

    # -- mutation ------------------------------------------------------------

    def put_fresh(self, contact: str, payload: Optional[int]) -> None:
        """Write an age-0 entry (the ``viewEntry`` step of Algorithm 4)."""
        if payload is not None and self._union is not None:
            self._union |= payload
        row = self._pos.get(contact)
        if row is not None:
            row[0] = -self.clock
            row[2] = payload
            return
        row = [-self.clock, contact, payload]
        self._pos[contact] = row
        self._rows.append(row)
        self._trim()

    def remove(self, contact: str) -> bool:
        row = self._pos.pop(contact, None)
        if row is None:
            return False
        self._rows.remove(row)
        if row[2] is not None:
            self._union = None
        return True

    def clear(self) -> None:
        self._rows.clear()
        self._pos.clear()
        self._union = 0

    def increment_ages(self, increment: int = 1) -> None:
        """Age every entry: one clock tick instead of a per-entry rebuild."""
        self.clock += increment

    def merge_columns(
        self, incoming: Iterable[ViewColumn], self_contact: Optional[str] = None
    ) -> None:
        """Algorithm 4's merge as one pass over the message columns.

        Duplicates keep the younger instance (strictly smaller age wins), the
        owner's own entry is skipped, then the view trims to the ``capacity``
        most recent entries.
        """
        clock = self.clock
        pos = self._pos
        rows = self._rows
        union = self._union
        for contact, age, payload in incoming:
            if contact == self_contact:
                continue
            negated = age - clock  # == -(clock - age), the incoming stamp
            row = pos.get(contact)
            if row is None:
                row = [negated, contact, payload]
                pos[contact] = row
                rows.append(row)
            elif negated < row[0]:
                row[0] = negated
                row[2] = payload
            else:
                continue
            if union is not None and payload is not None:
                union |= payload
        self._union = union
        self._trim()

    def seed_from(
        self, source: "ColumnarView", owner: ViewColumn, self_contact: Optional[str] = None
    ) -> None:
        """Section 4.2's view seeding: merge another peer's view and its owner.

        Exactly ``merge_columns((columns + [owner])[:capacity], self_contact)``
        where ``columns`` is ``source``'s entries as ``(contact, age,
        packed_summary)`` in view order (the ``export_columns`` oracle in
        ``tests/reference/``), read off ``source``'s rows (re-based from its
        clock onto this one) instead of an exported column list, and with the
        source's union taken over in one OR instead of one per payload.
        """
        limit = len(source._rows) + 1 if self.capacity is None else self.capacity
        delta = source.clock - self.clock
        pos = self._pos
        rows = self._rows
        for stamp, contact, payload in source._rows[:limit]:
            if contact == self_contact:
                continue
            negated = stamp + delta
            row = pos.get(contact)
            if row is None:
                row = [negated, contact, payload]
                pos[contact] = row
                rows.append(row)
            elif negated < row[0]:
                row[0] = negated
                row[2] = payload
        if self._union is not None:
            self._union = None if source._union is None else self._union | source._union
        if len(source._rows) < limit:
            self.merge_columns((owner,), self_contact)
        else:
            self._trim()

    def _trim(self) -> None:
        capacity = self.capacity
        rows = self._rows
        if capacity is None or len(rows) <= capacity:
            return
        # List comparison orders rows by (age, contact) ascending: keep the
        # youngest.  Rows are shared with ``_pos``, so only the evicted tail
        # needs index maintenance.
        rows.sort()
        pos = self._pos
        for row in rows[capacity:]:
            del pos[row[1]]
            if row[2] is not None:
                self._union = None
        del rows[capacity:]

    # -- selection -----------------------------------------------------------

    def select_oldest(self) -> Optional[str]:
        """Contact with the largest ``(age, contact)`` — partner selection."""
        rows = self._rows
        if not rows:
            return None
        return max(rows)[1]

    def select_subset_columns(
        self,
        size: int,
        rng: Optional[random.Random] = None,
        exclude: Iterable[str] = (),
    ) -> List[ViewColumn]:
        """``Lgossip`` random columns; draw-for-draw identical to ``AgedView``."""
        clock = self.clock
        rows = self._rows
        if exclude:
            excluded = set(exclude)
            candidates = [row for row in rows if row[1] not in excluded]
        else:
            candidates = rows
        if size < len(candidates) and rng is not None:
            # A sample consumes randomness as a function of the candidate
            # count alone, so sampling the row objects draws the very same view
            # positions as sampling materialised columns — the columns that end
            # up unselected are never built.
            candidates = sample_rows(rng, candidates, size)
        selected = [(row[1], clock + row[0], row[2]) for row in candidates]
        if size >= len(selected) or rng is not None:
            return selected
        # Deterministic fallback: youngest entries first.
        selected.sort(key=lambda column: (column[1], column[0]))
        return selected[:size]

    # -- query probing ---------------------------------------------------------

    def probe(self, mask: int) -> List[str]:
        """Contacts whose packed summary matches ``mask``, youngest first.

        A mask the union of the payloads does not cover matches no row: the
        common empty answer costs one AND.  Otherwise one batched pass: the
        precomputed Bloom mask is AND-compared against the payload of every
        row; absent payloads (directory-seeded entries) never match because
        every mask has at least one bit set.  An unknown union is rebuilt only
        when that pass found nothing — the answer it exists to make cheap —
        so a view whose probes mostly hit carries no union to maintain.
        """
        rows = self._rows
        union = self._union
        if union is not None and union & mask != mask:
            return []
        hits: List[Tuple[int, str]] = []
        append = hits.append
        clock = self.clock
        for negated, contact, payload in rows:
            if payload is not None and payload & mask == mask:
                append((clock + negated, contact))
        if not hits:
            if union is None:
                union = 0
                for row in rows:
                    if row[2] is not None:
                        union |= row[2]
                self._union = union
            return hits
        hits.sort()
        return [contact for _, contact in hits]
