"""Physical datacenter geometry: halls, rows, racks, and positions.

Robot mobility (travel times, operating radii, §3.4) and cascading
failures (physical proximity) both need real coordinates, so every rack
and switch has a position in hall space.  Units are metres; the hall
floor is the XY plane, Z is height.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List

#: Standard geometry constants (metres).
RACK_WIDTH_M = 0.6
RACK_DEPTH_M = 1.2
AISLE_WIDTH_M = 1.8
RACK_UNIT_HEIGHT_M = 0.0445  #: one "U"


@dataclasses.dataclass(frozen=True)
class Position:
    """A point in hall coordinates (metres)."""

    x: float
    y: float
    z: float = 0.0

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance."""
        return math.sqrt((self.x - other.x) ** 2
                         + (self.y - other.y) ** 2
                         + (self.z - other.z) ** 2)

    def floor_distance_to(self, other: "Position") -> float:
        """Distance in the XY plane (what a floor-bound robot travels)."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclasses.dataclass
class Rack:
    """One rack: a column of ``height_u`` unit slots in a row."""

    id: str
    row: int
    index: int
    position: Position
    height_u: int = 42

    def u_position(self, u: int) -> Position:
        """Hall-space position of unit slot ``u`` (1-based, bottom-up).

        The paper notes racks run up to 52U and servicing at head height
        and above is hard for humans (§3.4) — robot reach models use the
        Z coordinate this returns.
        """
        if not 1 <= u <= self.height_u:
            raise ValueError(f"u={u} outside 1..{self.height_u}")
        return Position(self.position.x, self.position.y,
                        u * RACK_UNIT_HEIGHT_M)


class HallLayout:
    """A hall of ``rows`` x ``racks_per_row`` racks on a regular grid."""

    def __init__(self, rows: int, racks_per_row: int,
                 height_u: int = 42) -> None:
        if rows < 1 or racks_per_row < 1:
            raise ValueError("rows and racks_per_row must be >= 1")
        self.rows = rows
        self.racks_per_row = racks_per_row
        self.height_u = height_u
        self.racks: Dict[str, Rack] = {}
        self._grid: List[List[Rack]] = []
        for row in range(rows):
            row_racks = []
            for index in range(racks_per_row):
                rack_id = f"rack-r{row:02d}c{index:02d}"
                position = Position(
                    x=index * RACK_WIDTH_M,
                    y=row * (RACK_DEPTH_M + AISLE_WIDTH_M))
                rack = Rack(rack_id, row, index, position, height_u)
                self.racks[rack_id] = rack
                row_racks.append(rack)
            self._grid.append(row_racks)

    def __repr__(self) -> str:
        return f"<HallLayout {self.rows}x{self.racks_per_row}>"

    @property
    def rack_count(self) -> int:
        return self.rows * self.racks_per_row

    def rack_at(self, row: int, index: int) -> Rack:
        return self._grid[row][index]

    def rack_list(self) -> List[Rack]:
        """All racks in row-major order."""
        return [rack for row in self._grid for rack in row]

    def travel_distance(self, origin: Position, target: Position) -> float:
        """Aisle-constrained travel distance between two floor points.

        Robots (like humans) move along aisles: along X within a row's
        aisle, along Y on cross-aisles.  Manhattan distance is the
        standard approximation for that movement pattern.
        """
        return abs(origin.x - target.x) + abs(origin.y - target.y)

    def racks_in_row(self, row: int) -> List[Rack]:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} outside 0..{self.rows - 1}")
        return list(self._grid[row])

    def neighbors(self, rack_id: str, radius_m: float) -> List[Rack]:
        """Racks whose floor position lies within ``radius_m`` (excludes
        the rack itself) — the blast radius for vibration coupling."""
        center = self.racks[rack_id]
        return [rack for rack in self.racks.values()
                if rack.id != rack_id
                and rack.position.floor_distance_to(center.position)
                <= radius_m]
