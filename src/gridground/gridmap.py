"""Occupancy grid maps: ASCII ingestion, random generation, and geometric queries.

Grids are stored row-major with x as the column index and y as the row index.
The origin (0,0) is the top-left cell and y grows downward, matching the text
layout of the ASCII map format.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import (
    InvalidDensity,
    MalformedHeader,
    OutOfBounds,
    RaggedRows,
    UnknownCharacter,
)


class CellState(Enum):
    """Traversability of one grid cell. The value is its map character."""

    FREE = "."
    OCCUPIED = "#"
    UNKNOWN = "?"


_CHAR_TO_CELL = {c.value: c for c in CellState}


class Connectivity(Enum):
    FOUR = 4
    EIGHT = 8


class GridPose(NamedTuple):
    """A cell coordinate; x is the column, y is the row."""

    x: int
    y: int


# Cardinal deltas in the fixed order up, right, left, down. Downstream
# tie-breaking depends on this order, so it must not change.
FOUR_DELTAS: tuple[tuple[int, int], ...] = ((0, -1), (1, 0), (-1, 0), (0, 1))

# Diagonal deltas appended for eight-connectivity: NE, SE, SW, NW.
DIAGONAL_DELTAS: tuple[tuple[int, int], ...] = ((1, -1), (1, 1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class OccupancyGrid:
    """An immutable rectangular grid of cell states.

    Attributes:
        width: number of columns, >= 1.
        height: number of rows, >= 1.
        resolution: meters per cell edge, > 0.
        cells: row-major tuple of length width * height. Other modules read
            it through is_free, cell and rows, so the layout is known here only.
    """

    width: int
    height: int
    resolution: float
    cells: tuple[CellState, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {self.width}x{self.height}")
        if not (isinstance(self.resolution, (int, float)) and math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be a positive finite number, got {self.resolution!r}")
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(self.cells) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} cells for a "
                f"{self.width}x{self.height} grid, got {len(self.cells)}"
            )

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, x: int, y: int) -> bool:
        """Whether (x, y) is a Free cell; False outside the grid."""
        w = self.width
        return 0 <= x < w and 0 <= y < self.height and self.cells[y * w + x] is CellState.FREE

    def rows(self) -> list[str]:
        """The map text rows, top to bottom, one character per cell."""
        text = "".join([c.value for c in self.cells])
        return [text[i:i + self.width] for i in range(0, len(text), self.width)]

    def cell(self, x: int, y: int) -> CellState:
        """Return the state at (x, y), raising OutOfBounds outside the grid."""
        if not self.in_bounds(x, y):
            raise OutOfBounds(f"({x},{y}) outside {self.width}x{self.height} grid")
        return self.cells[y * self.width + x]

    def with_occupied(self, poses: Iterable[GridPose]) -> "OccupancyGrid":
        """Return a copy with the given cells marked Occupied."""
        cells = list(self.cells)
        for p in poses:
            if not self.in_bounds(p[0], p[1]):
                raise OutOfBounds(f"({p[0]},{p[1]}) outside {self.width}x{self.height} grid")
            cells[p[1] * self.width + p[0]] = CellState.OCCUPIED
        return OccupancyGrid(self.width, self.height, self.resolution, tuple(cells))


def load_map(text: str) -> OccupancyGrid:
    """Parse an ASCII map.

    Line 1 is the header ``<width> <height> <resolution>`` (single spaces);
    the next ``height`` lines are rows of exactly ``width`` characters drawn
    from ``.`` (free), ``#`` (occupied), ``?`` (unknown).

    Args:
        text: UTF-8 map text with LF line endings.

    Returns:
        The parsed grid.

    Raises:
        MalformedHeader: bad header line.
        RaggedRows: wrong row count or a row of the wrong length.
        UnknownCharacter: a character outside the cell alphabet.
    """
    lines = text.rstrip("\n").split("\n")
    header = lines[0] if lines else ""
    parts = header.split(" ")
    if len(parts) != 3 or not all(parts):
        raise MalformedHeader(
            f"line 1: expected '<width> <height> <resolution>', got {header!r}"
        )
    w_tok, h_tok, res_tok = parts
    if not (w_tok.isdecimal() and h_tok.isdecimal()):
        raise MalformedHeader(f"line 1: width and height must be decimal integers, got {header!r}")
    try:
        width, height = int(w_tok), int(h_tok)
    except ValueError:  # more digits than int() converts
        raise MalformedHeader("line 1: width or height has too many digits") from None
    if width < 1 or height < 1:
        raise MalformedHeader(f"line 1: dimensions must be >= 1, got {width}x{height}")
    try:
        resolution = float(res_tok)
    except ValueError:
        raise MalformedHeader(f"line 1: resolution {res_tok!r} is not a number") from None
    if not math.isfinite(resolution) or resolution <= 0:
        raise MalformedHeader(f"line 1: resolution must be positive and finite, got {res_tok!r}")

    rows = lines[1:]
    if len(rows) != height:
        raise RaggedRows(f"expected {height} map rows after the header, found {len(rows)}")
    cells: list[CellState] = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(
                f"row {i + 1} (line {i + 2}): expected {width} characters, found {len(row)}"
            )
        for j, ch in enumerate(row):
            state = _CHAR_TO_CELL.get(ch)
            if state is None:
                raise UnknownCharacter(
                    f"row {i + 1} (line {i + 2}), column {j + 1}: unexpected character {ch!r}"
                )
            cells.append(state)
    return OccupancyGrid(width, height, resolution, tuple(cells))


def serialize_map(grid: OccupancyGrid) -> str:
    """Render a grid back to ASCII map text (inverse of load_map)."""
    return "\n".join([f"{grid.width} {grid.height} {grid.resolution!r}", *grid.rows()]) + "\n"


def random_map(width: int, height: int, density: float, seed: int) -> OccupancyGrid:
    """Generate a bordered random map, deterministic per seed.

    Border cells are always Free; each interior cell is independently
    Occupied with probability ``density``. Exactly one RNG draw is made per
    interior cell, in row-major order, so equal seeds give equal grids.

    Raises:
        InvalidDensity: density outside [0, 1].
    """
    if not (isinstance(density, (int, float)) and math.isfinite(density) and 0.0 <= density <= 1.0):
        raise InvalidDensity(f"density must be in [0, 1], got {density!r}")
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
    rng = random.Random(seed)
    cells: list[CellState] = []
    for y in range(height):
        for x in range(width):
            border = x == 0 or y == 0 or x == width - 1 or y == height - 1
            if border:
                cells.append(CellState.FREE)
            elif rng.random() < density:
                cells.append(CellState.OCCUPIED)
            else:
                cells.append(CellState.FREE)
    return OccupancyGrid(width, height, 1.0, tuple(cells))


def neighbors(
    grid: OccupancyGrid, s: GridPose, connectivity: Connectivity = Connectivity.FOUR
) -> list[GridPose]:
    """Traversable neighbor cells of ``s`` in deterministic order.

    Four-connectivity yields up, right, left, down; eight-connectivity
    appends NE, SE, SW, NW. Only Free in-bounds cells are returned. A
    diagonal is rejected when both of its adjacent cardinal cells are
    non-Free, so the path never cuts a blocked corner.

    Raises:
        OutOfBounds: ``s`` itself is outside the grid.
    """
    if not grid.in_bounds(s[0], s[1]):
        raise OutOfBounds(f"({s[0]},{s[1]}) outside {grid.width}x{grid.height} grid")
    is_free = grid.is_free
    result: list[GridPose] = []
    for dx, dy in FOUR_DELTAS:
        nx, ny = s[0] + dx, s[1] + dy
        if is_free(nx, ny):
            result.append(GridPose(nx, ny))
    if connectivity is Connectivity.EIGHT:
        for dx, dy in DIAGONAL_DELTAS:
            nx, ny = s[0] + dx, s[1] + dy
            # both adjacent cardinals blocked -> no squeezing through the corner
            if is_free(nx, ny) and (is_free(nx, s[1]) or is_free(s[0], ny)):
                result.append(GridPose(nx, ny))
    return result
