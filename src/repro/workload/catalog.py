"""Website and object catalogue.

A :class:`Website` owns a list of requestable, cacheable objects ("each
website provides 500 objects which are requestable and cacheable", Section
6.1).  Object identifiers are URL-like strings so the rest of the stack can
hash them exactly as the paper does (``hash(url)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

ObjectId = str


@dataclass(frozen=True)
class Website:
    """One website served by the CDN."""

    name: str
    num_objects: int
    object_size_bytes: int = 50_000  # paper: pages of 10-100 KB, size not modelled
    #: lazily materialised object-URL table; building the identifier strings
    #: once beats re-formatting them on every Zipf draw of a long trace
    _ids: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("website name must be non-empty")
        if self.num_objects <= 0:
            raise ValueError(f"num_objects must be positive, got {self.num_objects}")

    @property
    def url(self) -> str:
        return f"http://{self.name}"

    def object_id(self, index: int) -> ObjectId:
        """The URL of the ``index``-th object of this website."""
        if not 0 <= index < self.num_objects:
            raise IndexError(f"object index {index} outside [0, {self.num_objects})")
        return self.object_ids()[index]

    def object_ids(self) -> tuple:
        """Every object URL, indexed by rank (the cached table itself)."""
        ids = self._ids
        if not ids:
            url = self.url
            ids = tuple(f"{url}/object/{i}" for i in range(self.num_objects))
            object.__setattr__(self, "_ids", ids)  # frozen dataclass: one-time cache
        return ids

    def objects(self) -> Iterator[ObjectId]:
        return iter(self.object_ids())

    def owns(self, object_id: ObjectId) -> bool:
        return object_id.startswith(f"{self.url}/object/")


@dataclass
class Catalog:
    """The set ``W`` of websites supported by the CDN."""

    websites: List[Website] = field(default_factory=list)
    _by_name: Dict[str, Website] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for site in self.websites:
            if site.name in self._by_name:
                raise ValueError(f"duplicate website name {site.name!r}")
            self._by_name[site.name] = site

    @classmethod
    def synthetic(cls, num_websites: int, objects_per_website: int) -> "Catalog":
        """Create the paper's synthetic catalogue (|W| websites, nb-ob objects each)."""
        if num_websites <= 0:
            raise ValueError("num_websites must be positive")
        sites = [
            Website(name=f"site-{index:03d}.example.org", num_objects=objects_per_website)
            for index in range(num_websites)
        ]
        return cls(websites=sites)

    def __len__(self) -> int:
        return len(self.websites)

    def __iter__(self) -> Iterator[Website]:
        return iter(self.websites)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def website(self, name: str) -> Website:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"website {name!r} is not in the catalogue") from None

    def names(self) -> Sequence[str]:
        return tuple(site.name for site in self.websites)

    def website_of_object(self, object_id: ObjectId) -> Website:
        """Resolve an object URL back to its website."""
        for site in self.websites:
            if site.owns(object_id):
                return site
        raise KeyError(f"object {object_id!r} does not belong to any catalogued website")

    def total_objects(self) -> int:
        return sum(site.num_objects for site in self.websites)
