"""Zone registries: the zone-scoped position store co-located with each zone
server, fed by the zoned protocol from periodic reports and zone-crossing
updates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class RegistryEntry:
    node: int
    x: float
    y: float
    reported_at: float
    zone: int


class PositionRegistry:
    """Per-zone position tables; a node appears in at most one zone's table."""

    def __init__(self, n_zones: int):
        self.tables: list[dict[int, RegistryEntry]] = [dict() for _ in range(n_zones)]
        self._zone_of_node: dict[int, int] = {}

    def record(self, zone: int, node: int, x: float, y: float, t: float) -> None:
        old = self._zone_of_node.get(node)
        if old is not None and old != zone:
            self.tables[old].pop(node, None)
        self.tables[zone][node] = RegistryEntry(node, x, y, t, zone)
        self._zone_of_node[node] = zone

    def drop(self, zone: int, node: int) -> None:
        self.tables[zone].pop(node, None)
        if self._zone_of_node.get(node) == zone:
            del self._zone_of_node[node]

    def lookup(self, zone: int, node: int) -> Optional[RegistryEntry]:
        return self.tables[zone].get(node)

    def zone_holding(self, node: int) -> Optional[int]:
        return self._zone_of_node.get(node)

    def size(self, zone: int) -> int:
        return len(self.tables[zone])
