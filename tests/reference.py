"""Independent reference implementations the tests check the program against.

They read the grid only through ``OccupancyGrid.is_free``, never through the
flat free mask that the planners run on.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Sequence

from gridground.classical import SQRT2, PlannedPath, check_endpoints
from gridground.errors import EmptyPath
from gridground.gridmap import DIAGONAL_DELTAS, FOUR_DELTAS, Connectivity, GridPose, OccupancyGrid


def reference_neighbors(
    grid: OccupancyGrid, s: GridPose, connectivity: Connectivity = Connectivity.FOUR
) -> list[GridPose]:
    """gridmap.neighbors cell by cell: Free cells in delta order, no cut corners."""
    is_free = grid.is_free
    result = [GridPose(s[0] + dx, s[1] + dy) for dx, dy in FOUR_DELTAS if is_free(s[0] + dx, s[1] + dy)]
    if connectivity is Connectivity.EIGHT:
        for dx, dy in DIAGONAL_DELTAS:
            nx, ny = s[0] + dx, s[1] + dy
            if is_free(nx, ny) and (is_free(nx, s[1]) or is_free(s[0], ny)):
                result.append(GridPose(nx, ny))
    return result


def path_cost_cells(path: PlannedPath) -> float:
    """Path cost in cell units (1 per cardinal step, sqrt(2) per diagonal)."""
    if not path.waypoints:
        raise EmptyPath("path has no waypoints")
    total = 0.0
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        total += SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0
    return total


def dijkstra_oracle(
    grid: OccupancyGrid,
    start: GridPose,
    goal: GridPose,
    connectivity: Connectivity = Connectivity.FOUR,
) -> float | None:
    """Exhaustive uniform-cost search; returns the optimal cost in cells.

    Heuristic-free reference used to cross-check astar. Returns None when
    the goal is unreachable.
    """
    check_endpoints(grid, start, goal)
    start, goal = GridPose(*start), GridPose(*goal)
    dist: dict[GridPose, float] = {start: 0.0}
    settled: set[GridPose] = set()
    tick = count()
    pq: list[tuple[float, int, GridPose]] = [(0.0, next(tick), start)]
    while pq:
        d, _, cur = heapq.heappop(pq)
        if cur in settled:
            continue
        settled.add(cur)
        for nb in reference_neighbors(grid, cur, connectivity):
            if nb in settled:
                continue
            step = SQRT2 if nb.x != cur.x and nb.y != cur.y else 1.0
            nd = d + step
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(pq, (nd, next(tick), nb))
    return dist[goal] if goal in settled else None


def format_action_scores(scores: Sequence[float]) -> str:
    """Render a scores reply line at six significant digits."""
    if len(scores) != 4:
        raise ValueError(f"expected 4 scores, got {len(scores)}")
    rendered = []
    for v in scores:
        v = float(v)
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"scores must be finite and non-negative, got {v!r}")
        rendered.append(f"{v + 0.0:.6g}")  # +0.0 normalizes -0.0
    return "scores: " + " ".join(rendered)
