"""Network links.

A :class:`Link` is one contention point: a capacity in bytes/second shared by
the flows currently crossing it. Links are directed where direction matters
(NIC injection vs ejection, PCIe host-to-device vs device-to-host) and
undirected where it does not (socket memory aggregate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.flows import Flow


class Link:
    """One shared bandwidth resource.

    ``flows`` holds the flows live on the link. ``classes`` lists, in
    arrival order, the flow classes (``Flow.key``) live on it: the owning
    network adds a class when its first flow arrives and drops it when its
    last flow finishes, and walks ``classes`` to find a component
    (DESIGN.md §23).
    """

    __slots__ = ("name", "capacity", "flows", "classes", "bytes_carried")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"link {name!r} needs positive capacity, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.flows: set["Flow"] = set()
        self.classes: dict[tuple, None] = {}
        self.bytes_carried = 0.0  # lifetime accounting, for utilization reports

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} cap={self.capacity / 1e9:.1f}GB/s n={len(self.flows)}>"
