"""Deterministic random-number streams.

Every stochastic component of the simulation (topology generation, workload
generation, gossip partner selection, churn injection, ...) draws from its own
named stream.  Streams are derived from a single master seed, so a run is
fully determined by ``(configuration, seed)`` while components stay
statistically independent of one another — adding a random draw to the
workload generator does not perturb the gossip schedule.
"""

from __future__ import annotations

import hashlib
import random
from _random import Random as _CoreRandom
from functools import lru_cache
from math import ceil, log
from typing import Dict, Iterable, List, Sequence, Type, TypeVar

T = TypeVar("T")
G = TypeVar("G", bound=_CoreRandom)


def randbelow_many(rng: random.Random, n: int, count: int) -> List[int]:
    """``count`` uniform draws from ``range(n)``, as one inlined loop.

    Draw for draw what ``rng.randrange(n)``, ``rng.randint(0, n - 1)`` or
    ``rng.choice(range(n))`` return, and the same generator state afterwards:
    the loop is ``Random._randbelow`` itself — ``getrandbits(n.bit_length())``
    until the value is below ``n`` — without three Python frames per draw
    (``tests/test_workload_inlined_draws.py`` pins the equivalence).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    draws: List[int] = []
    append = draws.append
    for _ in range(count):
        draw = getrandbits(bits)
        while draw >= n:
            draw = getrandbits(bits)
        append(draw)
    return draws


@lru_cache(maxsize=64)
def _pool_limit(k: int) -> int:
    """The population size up to which ``random.sample`` of ``k`` items copies
    the population into a pool instead of tracking picks in a set."""
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    return setsize


def sample_rows(rng: random.Random, rows: Sequence[T], k: int) -> List[T]:
    """``rng.sample(rows, k)`` as one frame: same picks, same generator state.

    ``random.sample``'s two branches copied draw for draw — the shrinking
    pool when ``rows`` is small against ``k``, the rejection set otherwise —
    with ``Random._randbelow`` inlined as in :func:`randbelow_many`, so a
    gossip subset costs one Python frame instead of one per element
    (``tests/test_workload_inlined_draws.py`` pins picks and ``getstate()``
    against the interpreter's own ``sample`` for both branches).
    """
    n = len(rows)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result: list = [None] * k
    if n <= _pool_limit(k):
        # An n-length list is smaller than a k-length set: draw from a pool
        # whose non-selected items stay at pool[0 : n - i].
        pool = list(rows)
        for i in range(k):
            bound = n - i
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[bound - 1]  # move non-selected item into vacancy
    else:
        selected: set = set()
        bits = n.bit_length()
        for i in range(k):
            while True:
                j = getrandbits(bits)
                if j < n and j not in selected:
                    break
            selected.add(j)
            result[i] = rows[j]
    return result


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A registry of named, independently seeded ``random.Random`` streams."""

    __slots__ = ("_master_seed", "_streams", "_one_shot_draws")

    def __init__(self, master_seed: int = 42) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}
        #: draws taken so far from streams that are only ever asked for one
        #: value at a time (see :meth:`one_shot_uniform`)
        self._one_shot_draws: Dict[str, int] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it on demand."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._replay(name, self._one_shot_draws.pop(name, 0), random.Random)
            self._streams[name] = rng
        return rng

    def _replay(self, name: str, drawn: int, generator: Type[G]) -> G:
        """A fresh generator for ``name`` advanced past ``drawn`` uniform draws."""
        rng = generator(derive_seed(self._master_seed, name))
        for _ in range(drawn):
            rng.random()  # all a uniform() consumes, whatever its bounds
        return rng

    def one_shot_uniform(self, name: str, low: float, high: float) -> float:
        """The next ``uniform(low, high)`` of stream ``name``, retaining no generator.

        A simulation holds thousands of per-peer streams that are drawn from
        once (the start phase of a periodic process); keeping a Mersenne
        state alive for each costs ~2.5 KB apiece.  Only the number of draws
        taken is kept: the k-th call re-derives the stream and replays k-1
        draws, so it returns exactly what the k-th ``uniform`` of a retained
        stream would — including after :meth:`stream` takes the name over.

        The throw-away generator is the C core itself: it seeds from the same
        integer to the same state as its Python subclass ``random.Random``,
        minus that class's ``seed()`` / ``uniform()`` frames, and ``uniform``
        is by definition ``low + (high - low) * random()``.
        """
        rng = self._streams.get(name)
        if rng is not None:
            return rng.uniform(low, high)
        drawn = self._one_shot_draws.get(name, 0)
        self._one_shot_draws[name] = drawn + 1
        return low + (high - low) * self._replay(name, drawn, _CoreRandom).random()

    def names(self) -> Sequence[str]:
        return tuple(sorted({*self._streams, *self._one_shot_draws}))

    # Convenience wrappers used throughout the code base -------------------

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        return self.stream(name).randint(low, high)

    def choice(self, name: str, population: Sequence[T]) -> T:
        return self.stream(name).choice(population)

    def sample(self, name: str, population: Sequence[T], k: int) -> list[T]:
        rng = self.stream(name)
        k = min(k, len(population))
        return rng.sample(list(population), k)

    def shuffle(self, name: str, population: Iterable[T]) -> list[T]:
        items = list(population)
        self.stream(name).shuffle(items)
        return items

    def expovariate(self, name: str, rate: float) -> float:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self.stream(name).expovariate(rate)

    def random(self, name: str) -> float:
        return self.stream(name).random()
