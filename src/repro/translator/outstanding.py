"""The outstanding mapping list (Figure 7, element c).

FAM responses carry FAM addresses, but the node's caches and core only
understand node addresses.  For every request expecting a response, the
FAM translator records ``fam_addr -> node_addr`` here and uses the
entry to re-address the response.  In I-FAM this list lives in the STU;
DeACT moves it into the node because the STU no longer understands node
addresses.

Capacity matches the outstanding-request bound (128 in Table II);
overflow indicates a protocol bug upstream and is reported loudly.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ProtocolError

__all__ = ["OutstandingMappingList"]


class OutstandingMappingList:
    """Bounded ``request_id -> (fam_addr, node_addr)`` tracking."""

    def __init__(self, capacity: int = 128,
                 name: str = "outstanding") -> None:
        self.capacity = capacity
        self.name = name
        self._entries: Dict[int, Tuple[int, int]] = {}
        self.peak_occupancy = 0
        self.registered = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def register(self, request_id: int, fam_addr: int,
                 node_addr: int) -> None:
        """Record a request awaiting a FAM response.

        Raises
        ------
        ProtocolError
            On overflow or duplicate ids — both mean the issue logic
            upstream stopped respecting the outstanding bound.
        """
        if self.is_full:
            raise ProtocolError(
                f"{self.name}: overflow beyond {self.capacity} entries")
        if request_id in self._entries:
            raise ProtocolError(
                f"{self.name}: duplicate request id {request_id}")
        self._entries[request_id] = (fam_addr, node_addr)
        self.registered += 1
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)

    def resolve(self, request_id: int) -> Tuple[int, int]:
        """Consume an entry when its response arrives; returns
        ``(fam_addr, node_addr)``."""
        entry = self._entries.pop(request_id, None)
        if entry is None:
            raise ProtocolError(
                f"{self.name}: response for unknown request {request_id}")
        return entry

    def round_trip(self, fam_addr: int, node_addr: int) -> int:
        """Track one request whose response arrives before the caller
        returns (the simulator carries a FAM access to completion in
        one call): :meth:`register` it under the next id of this
        list's own registration count, then :meth:`resolve` it.
        Returns the node address the response is re-addressed to.
        """
        request_id = self.registered + 1
        self.register(request_id, fam_addr, node_addr)
        return self.resolve(request_id)[1]

    def node_address_of(self, request_id: int) -> int:
        """Peek at the node address without consuming the entry."""
        entry = self._entries.get(request_id)
        if entry is None:
            raise ProtocolError(
                f"{self.name}: unknown request {request_id}")
        return entry[1]
