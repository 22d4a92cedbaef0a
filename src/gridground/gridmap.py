"""Occupancy grid maps: ASCII ingestion, random generation, and geometric queries.

Grids are stored row-major with x as the column index and y as the row index.
The origin (0,0) is the top-left cell and y grows downward, matching the text
layout of the ASCII map format.
"""

from __future__ import annotations

import math
import random
import threading
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InvalidDensity,
    InvalidParams,
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
_FREE, _OCCUPIED = ord("."), ord("#")
# map character -> free-mask byte: 1 for Free, 0 for Occupied and Unknown
_FREE_BYTE = bytes.maketrans(b".#?", b"\x01\x00\x00")


class Connectivity(Enum):
    FOUR = 4
    EIGHT = 8


def as_connectivity(value: Connectivity | int) -> Connectivity:
    """The Connectivity member ``value`` names: a member, or its value 4 or 8.

    Raises:
        InvalidParams: value is anything else.
    """
    if isinstance(value, Connectivity):
        return value
    try:
        return Connectivity(value)
    except ValueError:
        raise InvalidParams(f"connectivity must be 4 or 8, got {value!r}") from None


class GridPose(NamedTuple):
    """A cell coordinate; x is the column, y is the row."""

    x: int
    y: int


# Cardinal deltas in the fixed order up, right, left, down. Downstream
# tie-breaking depends on this order, so it must not change.
FOUR_DELTAS: tuple[tuple[int, int], ...] = ((0, -1), (1, 0), (-1, 0), (0, 1))

# Diagonal deltas appended for eight-connectivity: NE, SE, SW, NW.
DIAGONAL_DELTAS: tuple[tuple[int, int], ...] = ((1, -1), (1, 1), (-1, 1), (-1, -1))


class OccupancyGrid:
    """An immutable rectangular grid of cell states.

    Attributes:
        width: number of columns, >= 1.
        height: number of rows, >= 1.
        resolution: meters per cell edge, > 0.

    The cells are stored once, as ``_padded``: the map characters in row-major
    ``bytes`` with a pad of one ``#`` cell on every side, so every cell has all
    eight neighbours in range; ``flat_index`` indexes it. All else is a view of
    it, built on first read and then kept (the grid is frozen, so none goes
    stale): ``cells``, the ``CellState`` tuple; ``text``, the map text rows
    joined by newlines, addressed through ``text_index`` and split by
    ``rows()``; and ``free_mask``, the kernels' mask, 1 where Free, addressed through
    ``flat_index``, ``flat_offsets``, ``flat_pose`` and ``strip_pad`` only. The
    cost-to-goal field of the last goal asked, ``distances_to``, is kept on the
    grid, and recent fields are shared between grids of equal content; the
    heuristic tables of ``manhattan_to`` depend on the shape alone and are
    shared between grids.

    Grids are equal, and hash alike, when their width, height, resolution and
    store are; assigning an attribute raises AttributeError.
    """

    def __init__(self, width: int, height: int, resolution: float, cells: Iterable[CellState]):
        if width < 1 or height < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
        if not (isinstance(resolution, (int, float)) and math.isfinite(resolution) and resolution > 0):
            raise ValueError(f"resolution must be a positive finite number, got {resolution!r}")
        cells = tuple(cells)
        if len(cells) != width * height:
            raise ValueError(f"expected {width * height} cells for a {width}x{height} grid, got {len(cells)}")
        if bad := [c for c in cells if not isinstance(c, CellState)]:
            raise ValueError(f"cells must be CellState members, got {bad[0]!r}")
        text = "".join(c.value for c in cells)
        padded = _pad(width, (text[i:i + width] for i in range(0, len(text), width)))
        vars(self).update(width=width, height=height, resolution=resolution, _padded=padded)

    def _key(self) -> tuple:
        return self.width, self.height, self.resolution, self._padded

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, x: int, y: int) -> bool:
        """Whether (x, y) is a Free cell; False outside the grid."""
        w = self.width
        return 0 <= x < w and 0 <= y < self.height and self._padded[(y + 1) * (w + 2) + x + 1] == _FREE

    @cached_property
    def cells(self) -> tuple[CellState, ...]:
        """Row-major tuple of width * height cell states."""
        return tuple(map(_CHAR_TO_CELL.__getitem__, self.text.replace("\n", "")))

    @cached_property
    def text(self) -> str:
        """The map text rows, top to bottom, joined by newlines: what serialize_map writes after its header."""
        padded, w = self._padded.decode("ascii"), self.width
        return "\n".join([padded[i:i + w] for i in range(w + 3, (w + 2) * (self.height + 1), w + 2)])

    def text_index(self, x: int, y: int) -> int:
        """Index of cell (x, y)'s character in ``text``."""
        return y * (self.width + 1) + x

    def rows(self) -> list[str]:
        """The map text rows, top to bottom, one character per cell (a fresh list)."""
        return self.text.split("\n")

    @cached_property
    def free_mask(self) -> bytes:
        """Padded row-major free mask, (width + 2) * (height + 2) bytes; see the class docstring."""
        return self._padded.translate(_FREE_BYTE)

    @cached_property
    def flat_offsets(self) -> tuple[int, ...]:
        """free_mask index steps of FOUR_DELTAS, then of DIAGONAL_DELTAS."""
        stride = self.width + 2
        return tuple(dx + dy * stride for dx, dy in FOUR_DELTAS + DIAGONAL_DELTAS)

    def flat_index(self, x: int, y: int) -> int:
        """Index of cell (x, y) in free_mask; the pad cells around the grid have indices too."""
        return (y + 1) * (self.width + 2) + x + 1

    def flat_pose(self, i: int) -> GridPose:
        """The cell at free_mask index i (inverse of flat_index)."""
        y, x = divmod(i, self.width + 2)
        return GridPose(x - 1, y - 1)

    def strip_pad(self, values: Sequence) -> list:
        """A list of one value per free_mask index, reduced to the grid's cells in row-major order."""
        w, stride = self.width, self.width + 2
        out: list = []
        for i in range(stride + 1, stride * (self.height + 1), stride):
            out += values[i:i + w]
        return out

    def distances_to(self, goal: GridPose) -> tuple[float, ...]:
        """Four-connected cost-to-goal of every cell, row-major; unreachable cells hold inf.

        A level-by-level BFS over the free mask; a blocked or out-of-bounds
        goal yields an all-inf field. The field of the last goal is kept on
        the grid. Before a BFS runs, the memo of recent fields is asked for
        one of a grid with equal width and store, so a grid rebuilt with the
        same content (a replayed trial's sensed grid, say) reuses its field.
        """
        # a GridPose equals its plain tuple; `is True` passes over a goal whose == is elementwise, as an array's is
        if (held := vars(self).get("_goal_field")) and (held[0] == goal) is True:
            return held[1]
        goal = GridPose(goal[0], goal[1])
        key = (self.width, self._padded, goal)  # store bytes, not the grid: the memo keeps no grid alive
        if (field := _field_memo.get(key)) is None:
            field = _cost_field(self, goal)
            _field_memo.put(key, field)
        vars(self)["_goal_field"] = (goal, field)  # one pair: goal and field never out of step
        return field

    def manhattan_to(self, goal: GridPose) -> tuple[int, ...]:
        """``|x - gx| + |y - gy|`` of every free_mask index, pad cells included.

        goal must be a cell of the grid. The table depends on the grid's shape
        and the goal alone, so grids of one shape share it: the tables of the
        last 8 (width, height, goal) keys asked are kept.
        """
        return _manhattan_table(self.width, self.height, goal[0], goal[1])

    def cell(self, x: int, y: int) -> CellState:
        """Return the state at (x, y), raising OutOfBounds outside the grid."""
        if not self.in_bounds(x, y):
            raise OutOfBounds(f"({x},{y}) outside {self.width}x{self.height} grid")
        return _CHAR_TO_CELL[chr(self._padded[self.flat_index(x, y)])]

    def with_occupied(self, poses: Iterable[GridPose]) -> "OccupancyGrid":
        """Return a new grid with the given cells marked Occupied.

        The new grid's store is a copy of this one's with ``#`` written at
        each pose; it builds its views and field afresh when they are read.
        The result is always a new object, also for no poses.
        """
        padded = bytearray(self._padded)
        for p in poses:
            x, y = p[0], p[1]
            if not self.in_bounds(x, y):
                raise OutOfBounds(f"({x},{y}) outside {self.width}x{self.height} grid")
            padded[self.flat_index(x, y)] = _OCCUPIED
        return _grid(self.width, self.height, self.resolution, bytes(padded))


def _pad(width: int, rows: Iterable[str]) -> bytes:
    """The padded store of a grid with these map text rows."""
    edge = "#" * (width + 2)
    return f"{edge}#{'##'.join(rows)}#{edge}".encode("ascii")


@lru_cache(maxsize=8)
def _manhattan_table(width: int, height: int, gx: int, gy: int) -> tuple[int, ...]:
    # each padded row falls to the goal's column, then rises: two slices of one
    # list of distances, so every entry is one of its int objects
    dist = list(range(width + height + 2))
    table: list[int] = []
    for y in range(-1, height + 1):
        dy = abs(y - gy)
        table += dist[dy + gx + 1:dy:-1]
        table += dist[dy:dy + width - gx + 1]
    return tuple(table)  # shared by every grid of the shape, so immutable


def _cost_field(grid: OccupancyGrid, goal: GridPose) -> tuple[float, ...]:
    """The BFS behind ``distances_to``: goal's cost-to-goal field over grid's cells."""
    unseen = bytearray(grid.free_mask)  # free cells not reached yet
    field = [math.inf] * len(unseen)
    if grid.is_free(goal.x, goal.y):
        offsets, frontier, d = grid.flat_offsets[:4], [grid.flat_index(goal.x, goal.y)], 0.0
        unseen[frontier[0]] = 0
        while frontier:
            reached = []
            for i in frontier:
                field[i] = d
                for o in offsets:
                    j = i + o
                    if unseen[j]:
                        unseen[j] = 0
                        reached.append(j)
            frontier, d = reached, d + 1.0
    return tuple(grid.strip_pad(field))


class _FieldMemo:
    """Recent cost-to-goal fields by (width, padded store, goal), least recently asked first.

    The width is part of the key because grids of different shapes can share
    a store: rows ``##``/``..``/``..``/``##`` and ``##..``/``..##``. A field
    costs its cells plus ``KEY_COST`` for its key and slot, so tiny grids
    cannot pile up entries; past ``budget`` in all, the least recently asked
    fields go, and a field that alone costs more is not kept. Every grid in
    the process shares one memo, so a lock keeps fields and cost in step.
    """

    KEY_COST = 64

    def __init__(self, budget: int):
        self.budget, self.cost, self.fields, self.lock = budget, 0, {}, threading.Lock()

    def get(self, key):
        """The field kept under key, now the most recently asked, or None."""
        with self.lock:
            if (field := self.fields.pop(key, None)) is not None:
                self.fields[key] = field
            return field

    def put(self, key, field: tuple[float, ...]) -> None:
        """Keep field under key as the most recently asked, unless it alone is over the budget."""
        if (cost := len(field) + self.KEY_COST) > self.budget:
            return
        with self.lock:
            if key in self.fields:  # another thread built it meanwhile
                return
            self.fields[key] = field
            self.cost += cost
            while self.cost > self.budget:
                self.cost -= len(self.fields.pop(next(iter(self.fields)))) + self.KEY_COST


# 2**20 cells: about 8 MB of field slots, over a hundred 100x100 fields
_field_memo = _FieldMemo(1 << 20)


def _grid(width: int, height: int, resolution: float, padded: bytes) -> OccupancyGrid:
    """A grid over a store built from checked rows, without the constructor's checks."""
    grid = object.__new__(OccupancyGrid)
    vars(grid).update(width=width, height=height, resolution=resolution, _padded=padded)
    return grid


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
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(
                f"row {i + 1} (line {i + 2}): expected {width} characters, found {len(row)}"
            )
        if row.strip(".#?"):  # something outside the cell alphabet: name the first one
            j, ch = next((j, ch) for j, ch in enumerate(row) if ch not in _CHAR_TO_CELL)
            raise UnknownCharacter(
                f"row {i + 1} (line {i + 2}), column {j + 1}: unexpected character {ch!r}"
            )
    return _grid(width, height, resolution, _pad(width, rows))


def serialize_map(grid: OccupancyGrid) -> str:
    """Render a grid back to ASCII map text (inverse of load_map)."""
    return f"{grid.width} {grid.height} {grid.resolution!r}\n{grid.text}\n"


def random_map(width: int, height: int, density: float, seed: int) -> OccupancyGrid:
    """Generate a bordered random map, deterministic per seed.

    Border cells are always Free; each interior cell is independently
    Occupied with probability ``density``. Exactly one RNG draw is made per
    interior cell, in row-major order, so equal seeds give equal grids.

    Raises:
        InvalidDensity: density outside [0, 1].
        InvalidParams: width or height below 1.
    """
    if not (isinstance(density, (int, float)) and math.isfinite(density) and 0.0 <= density <= 1.0):
        raise InvalidDensity(f"density must be in [0, 1], got {density!r}")
    if width < 1 or height < 1:
        raise InvalidParams(f"grid dimensions must be >= 1, got {width}x{height}")
    rng = random.Random(seed)
    rows = ["".join("#" if 0 < y < height - 1 and 0 < x < width - 1 and rng.random() < density else "."
                    for x in range(width)) for y in range(height)]
    return _grid(width, height, 1.0, _pad(width, rows))


def neighbors(
    grid: OccupancyGrid, s: GridPose, connectivity: Connectivity | int = Connectivity.FOUR
) -> list[GridPose]:
    """Traversable neighbor cells of ``s`` in deterministic order.

    Four-connectivity yields up, right, left, down; eight-connectivity
    appends NE, SE, SW, NW. Only Free in-bounds cells are returned. A
    diagonal is rejected when both of its adjacent cardinal cells are
    non-Free, so the path never cuts a blocked corner. connectivity may be
    a Connectivity member or its value, 4 or 8.

    Raises:
        InvalidParams: connectivity is neither a Connectivity member nor 4 or 8.
        OutOfBounds: ``s`` itself is outside the grid.
    """
    connectivity = as_connectivity(connectivity)
    x, y = s[0], s[1]
    if not grid.in_bounds(x, y):
        raise OutOfBounds(f"({x},{y}) outside {grid.width}x{grid.height} grid")
    mask, i, offsets = grid.free_mask, grid.flat_index(x, y), grid.flat_offsets
    result = [GridPose(x + dx, y + dy) for o, (dx, dy) in zip(offsets, FOUR_DELTAS) if mask[i + o]]
    if connectivity is Connectivity.EIGHT:
        for o, (dx, dy) in zip(offsets[4:], DIAGONAL_DELTAS):
            # both adjacent cardinals (i + dx, i + o - dx) blocked -> no squeezing through the corner
            if mask[i + o] and (mask[i + dx] or mask[i + o - dx]):
                result.append(GridPose(x + dx, y + dy))
    return result
