"""Reference for Algorithm 3: the two lookups ``DirectoryPeer.redirect`` fuses.

``redirect`` answers from an inverted object → holders table and a stamp
column in one walk, sorting nothing.  These are the plain forms it is tested
against: the full holder list read off the index entries, youngest first, and
the full sorted list of neighbours whose summary may hold the object.
:func:`reserved_hosts` reads the directory hosts off the topology, as the
trace builder does, for tests that place clients by hand.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.directory_peer import DirectoryPeer
from repro.core.system import FlowerCDN, directory_hosts
from repro.workload.catalog import ObjectId


def reserved_hosts(system: FlowerCDN) -> Set[int]:
    """The hosts the D-ring's directory peers occupy, which no client is given."""
    rows = directory_hosts(system.topology, len(system.catalog), system.config.num_localities)
    return {host for row in rows for host in row}


def lookup_index(directory: DirectoryPeer, object_id: ObjectId) -> List[str]:
    """Content peers whose index entry lists ``object_id``, youngest entry first
    (ties by peer id), so redirections prefer peers heard from recently."""
    holders = []
    for peer_id in directory._index:
        entry = directory.entry(peer_id)
        if object_id in entry.objects:
            holders.append((entry.age, peer_id))
    return [peer_id for _, peer_id in sorted(holders)]


def lookup_summaries(directory: DirectoryPeer, object_id: ObjectId) -> List[str]:
    """Neighbouring directory peers whose stored summary may contain ``object_id``."""
    return sorted(
        neighbor for neighbor, summary in directory._summaries.items() if object_id in summary
    )
