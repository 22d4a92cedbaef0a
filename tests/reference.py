"""Independent reference implementations the tests check the program against.

They read the grid only through ``OccupancyGrid.is_free``, never through the
flat free mask that the planners run on, except ``reference_astar``: the
planner's former search, kept as it was.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from operator import attrgetter
from typing import Iterable, Sequence

from gridground.classical import SQRT2, PlannedPath, check_endpoints
from gridground.errors import OutOfBounds, RaggedRows, ScorerFailure, UnknownCharacter
from gridground.gridmap import DIAGONAL_DELTAS, FOUR_DELTAS, CellState, Connectivity, GridPose, OccupancyGrid
from gridground.grounded import (
    ACTIONS,
    Action,
    FailureReason,
    Instruction,
    PlannerConfig,
    ScoredAction,
    StepRecord,
    TaskScorer,
)
from gridground.scorers import TaskScorerQuery
from gridground.simulator import ExecutionRecord, PathValidation, Scenario, SimPlanner


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


def reference_astar(
    grid: OccupancyGrid,
    start: GridPose,
    goal: GridPose,
    connectivity: Connectivity = Connectivity.FOUR,
) -> PlannedPath | None:
    """classical.astar as it was before its four-connected open list took one int key.

    Kept verbatim, with float (f, h, tick) tuples under both connectivities,
    so the two searches can be compared path for path.

    Uses the Manhattan heuristic under four-connectivity and the octile
    heuristic under eight-connectivity; both are admissible for the step
    costs above. Open-list ties break on lowest f, then lowest h, then
    insertion order, which makes repeated runs byte-identical.

    Returns:
        The optimal path, or None when the goal is unreachable.

    Raises:
        InvalidEndpoint: start or goal out of bounds or not Free.
    """
    check_endpoints(grid, start, goal)
    start, goal = GridPose(*start), GridPose(*goal)
    if start == goal:
        return PlannedPath((start,), grid.resolution)

    # nodes are free_mask indices; each heap entry carries its node's (x, y)
    # after the (f, h, tick) key, which alone decides the order
    gx, gy = goal
    if connectivity is Connectivity.FOUR:
        def h(x: int, y: int) -> float:
            return abs(x - gx) + abs(y - gy)
        moves = tuple(zip(grid.flat_offsets, FOUR_DELTAS))
    else:
        def h(x: int, y: int) -> float:
            dx, dy = abs(x - gx), abs(y - gy)
            return max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy)
        moves = tuple(zip(grid.flat_offsets, FOUR_DELTAS + DIAGONAL_DELTAS))

    mask = grid.free_mask
    src, dst = grid.flat_index(*start), grid.flat_index(*goal)
    tick = count()
    g = [math.inf] * len(mask)
    g[src] = 0.0
    parent: dict[int, int] = {}
    closed = bytearray(len(mask))
    h0 = h(*start)
    open_heap = [(h0, h0, next(tick), src, start.x, start.y)]

    while open_heap:
        _, _, _, cur, x, y = heapq.heappop(open_heap)
        if closed[cur]:
            continue
        closed[cur] = 1
        if cur == dst:
            path = [cur]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return PlannedPath(tuple(grid.flat_pose(i) for i in reversed(path)), grid.resolution)
        g_cur = g[cur]
        for o, (dx, dy) in moves:
            nb = cur + o
            if not mask[nb] or closed[nb]:
                continue
            if dx and dy:
                # both adjacent cardinals blocked -> no squeezing through the corner
                if not (mask[cur + dx] or mask[nb - dx]):
                    continue
                ng = g_cur + SQRT2
            else:
                ng = g_cur + 1.0
            if ng < g[nb]:
                g[nb] = ng
                parent[nb] = cur
                hn = h(x + dx, y + dy)
                heapq.heappush(open_heap, (ng + hn, hn, next(tick), nb, x + dx, y + dy))
    return None


def path_cost_cells(path: PlannedPath) -> float:
    """Path cost in cell units (1 per cardinal step, sqrt(2) per diagonal)."""
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


def reference_distance_field(grid: OccupancyGrid, goal: GridPose) -> list[float]:
    """The four-connected cost-to-goal field, cell by cell: a FIFO BFS over reference_neighbors."""
    w = grid.width
    field = [math.inf] * (w * grid.height)
    if not grid.is_free(goal[0], goal[1]):
        return field
    field[goal[1] * w + goal[0]] = 0.0
    queue = deque([GridPose(goal[0], goal[1])])
    while queue:
        cur = queue.popleft()
        for nb in reference_neighbors(grid, cur):
            if field[nb.y * w + nb.x] == math.inf:
                field[nb.y * w + nb.x] = field[cur.y * w + cur.x] + 1.0
                queue.append(nb)
    return field


class ReferenceOracleScorer:
    """The stateful OracleScorer that kept the last (grid, goal) field itself.

    Verbatim but for its field, which comes from reference_distance_field
    instead of the grid's own distances_to.
    """

    def __init__(self):
        self._grid: OccupancyGrid | None = None
        self._goal: GridPose | None = None
        self._field: list[float] = []

    def __call__(self, query: TaskScorerQuery) -> tuple[float, float, float, float]:
        grid, goal = query.grid, query.instruction.goal
        if grid is not self._grid or goal != self._goal:
            self._grid, self._goal = grid, GridPose(*goal)
            self._field = reference_distance_field(grid, self._goal)
        fld, w, h = self._field, grid.width, grid.height
        sx, sy = query.state
        here = fld[sy * w + sx] if 0 <= sx < w and 0 <= sy < h else math.inf
        if not math.isfinite(here):
            return (0.0, 0.0, 0.0, 0.0)
        on_path = here - 1.0
        return tuple(  # type: ignore[return-value]
            [1.0 if 0 <= cx < w and 0 <= cy < h and fld[cy * w + cx] == on_path else 0.0 for cx, cy in query.candidates]
        )


def reference_fingerprint(body: dict) -> str:
    """scorers.request_fingerprint as one json.dumps: sha256 hex of the canonical JSON."""
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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


def reference_load_rows(rows: list[str], width: int) -> list[CellState]:
    """load_map's row check character by character: the cells, or its first RaggedRows/UnknownCharacter."""
    lookup = {c.value: c for c in CellState}
    cells: list[CellState] = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(
                f"row {i + 1} (line {i + 2}): expected {width} characters, found {len(row)}"
            )
        for j, ch in enumerate(row):
            state = lookup.get(ch)
            if state is None:
                raise UnknownCharacter(
                    f"row {i + 1} (line {i + 2}), column {j + 1}: unexpected character {ch!r}"
                )
            cells.append(state)
    return cells


# --- the grid that kept three stores in step: cells, text rows and free mask ---

_CELL_CHAR = attrgetter("_value_")
_FREE_BYTE = bytes.maketrans(b".#?", b"\x01\x00\x00")


@dataclass(frozen=True)
class ReferenceOccupancyGrid:
    """The storage half of OccupancyGrid as it was before the one padded store:
    the ``cells`` tuple is the field, rows and mask are views of it, and
    ``with_occupied`` edits copies of all three."""

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

    @cached_property
    def _rows(self) -> tuple[str, ...]:
        text = "".join(map(_CELL_CHAR, self.cells))
        return tuple(text[i:i + self.width] for i in range(0, len(text), self.width))

    def rows(self) -> list[str]:
        """The map text rows, top to bottom, one character per cell (a fresh list)."""
        return list(self._rows)

    @cached_property
    def free_mask(self) -> bytes:
        """Padded row-major free mask, (width + 2) * (height + 2) bytes; see the class docstring."""
        edge = "#" * (self.width + 2)
        text = f"{edge}#{'##'.join(self._rows)}#{edge}"
        return text.encode("ascii").translate(_FREE_BYTE)

    def flat_index(self, x: int, y: int) -> int:
        """Index of cell (x, y) in free_mask; the pad cells around the grid have indices too."""
        return (y + 1) * (self.width + 2) + x + 1

    def cell(self, x: int, y: int) -> CellState:
        """Return the state at (x, y), raising OutOfBounds outside the grid."""
        if not self.in_bounds(x, y):
            raise OutOfBounds(f"({x},{y}) outside {self.width}x{self.height} grid")
        return self.cells[y * self.width + x]

    def with_occupied(self, poses: Iterable[GridPose]) -> "ReferenceOccupancyGrid":
        """Return a new grid with the given cells marked Occupied.

        The new grid's rows and mask are this grid's, copied with only the
        given cells changed, instead of being rebuilt from its cells; it keeps
        no field. The result is always a new object, also for no poses.
        """
        cells, rows, mask = list(self.cells), list(self._rows), bytearray(self.free_mask)
        for p in poses:
            x, y = p[0], p[1]
            if not self.in_bounds(x, y):
                raise OutOfBounds(f"({x},{y}) outside {self.width}x{self.height} grid")
            cells[y * self.width + x] = CellState.OCCUPIED
            rows[y] = f"{rows[y][:x]}#{rows[y][x + 1:]}"
            mask[self.flat_index(x, y)] = 0
        grid = ReferenceOccupancyGrid(self.width, self.height, self.resolution, tuple(cells))
        vars(grid).update(_rows=tuple(rows), free_mask=bytes(mask))
        return grid


# --- the grounded planner, one ScoredAction and StepRecord per step ---


def reference_affordance(grid: OccupancyGrid, s: GridPose, action: Action) -> float:
    """grounded's p_util, cell by cell: 0.0 blocked, 1.0 with four Free cardinals, else 0.8."""
    cx, cy = s[0] + action.delta[0], s[1] + action.delta[1]
    if not grid.is_free(cx, cy):
        return 0.0
    for dx, dy in FOUR_DELTAS:
        if not grid.is_free(cx + dx, cy + dy):
            return 0.8
    return 1.0


def reference_score_candidates(
    scorer: TaskScorer, instruction: Instruction, grid: OccupancyGrid, s: GridPose
) -> list[ScoredAction]:
    candidates = tuple(GridPose(s[0] + a.delta[0], s[1] + a.delta[1]) for a in ACTIONS)
    query = TaskScorerQuery(instruction=instruction, grid=grid, state=GridPose(*s), candidates=candidates)
    reply = scorer(query)  # an exception from the call itself is the scorer's bug and propagates
    try:
        raw = [float(v) for v in reply]
    except (TypeError, ValueError, OverflowError) as exc:  # not iterable, not numbers, past the float range
        raise ScorerFailure(f"scorer reply is not numbers: {type(exc).__name__}: {exc}") from exc
    if len(raw) != len(ACTIONS):
        raise ScorerFailure(f"scorer returned {len(raw)} scores for {len(ACTIONS)} actions")
    if any(not (0.0 <= v < math.inf) for v in raw):
        raise ScorerFailure(f"scores must be finite and non-negative, got {raw}")
    total = sum(raw)
    p_gpts = [v / total for v in raw] if total > 0 else [1.0 / len(ACTIONS)] * len(ACTIONS)
    scored = []
    for a, cand, p_gpt in zip(ACTIONS, candidates, p_gpts):
        p_util = reference_affordance(grid, s, a)
        scored.append(ScoredAction(a, cand, p_gpt, p_util, p_gpt * p_util))
    return scored


def reference_select_action(
    scored: Sequence[ScoredAction], visited: set[GridPose], config: PlannerConfig
) -> ScoredAction | None:
    if len(scored) != 4:
        raise ValueError(f"expected 4 scored actions, got {len(scored)}")
    best: ScoredAction | None = None
    best_v = 0.0
    for sa in scored:
        v = sa.p_combined * (config.revisit_penalty if sa.candidate in visited else 1.0)
        if v > best_v:
            best, best_v = sa, v
    return best


@dataclass
class ReferencePlanResult:
    path: PlannedPath
    trace: list[StepRecord]
    failure: FailureReason | None = None
    detail: str = ""


def reference_plan(
    scorer: TaskScorer,
    grid: OccupancyGrid,
    start: GridPose,
    instruction: Instruction,
    config: PlannerConfig | None = None,
) -> ReferencePlanResult:
    """grounded.plan as a loop that builds its trace as it walks."""
    config = config or PlannerConfig()
    goal = GridPose(*instruction.goal)
    check_endpoints(grid, start, goal)
    max_steps = config.max_steps if config.max_steps is not None else 4 * (grid.width + grid.height)

    s = GridPose(*start)
    waypoints = [s]
    visited = {s}
    trace: list[StepRecord] = []
    if s == goal:
        return ReferencePlanResult(PlannedPath((s,), grid.resolution), trace)

    for step in range(max_steps):
        try:
            scored = reference_score_candidates(scorer, instruction, grid, s)
        except ScorerFailure as exc:
            return ReferencePlanResult(
                PlannedPath(tuple(waypoints), grid.resolution),
                trace,
                FailureReason.SCORER_FAILURE,
                detail=str(exc),
            )
        choice = reference_select_action(scored, visited, config)
        trace.append(StepRecord(step, s, tuple(scored), choice))
        if choice is None:
            return ReferencePlanResult(
                PlannedPath(tuple(waypoints), grid.resolution),
                trace,
                FailureReason.STUCK,
                detail=f"all adjusted scores zero at ({s.x},{s.y})",
            )
        s = choice.candidate
        waypoints.append(s)
        visited.add(s)
        if s == goal:
            return ReferencePlanResult(PlannedPath(tuple(waypoints), grid.resolution), trace)
    return ReferencePlanResult(
        PlannedPath(tuple(waypoints), grid.resolution),
        trace,
        FailureReason.STEP_LIMIT,
        detail=f"goal not reached within {max_steps} steps",
    )


# --- the simulator, rescanning every obstacle on every tick ---


def reference_execute(scenario: Scenario, planner: SimPlanner) -> ExecutionRecord:
    """simulator.execute's tick order, with materialized - sensed rebuilt on every tick."""
    scenario.validate()
    grid = scenario.map
    budget = 10 * (grid.width + grid.height)
    start = GridPose(*scenario.start)
    goal = GridPose(*scenario.goal)

    def chebyshev(a: GridPose, b: GridPose) -> int:
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    materialized: set[GridPose] = set()
    sensed: set[GridPose] = set()

    def materialize(tick: int) -> None:
        for ob in scenario.dynamic_obstacles:
            if ob.appears_at_step <= tick:
                materialized.add(GridPose(*ob.cell))

    def plan_from(cell: GridPose) -> deque[GridPose] | None:
        if not (working.is_free(cell.x, cell.y) and working.is_free(goal.x, goal.y)):
            return None
        path = planner.plan(working, cell, goal, scenario.instruction_text)
        if path is None:
            return None
        steps = deque(GridPose(*p) for p in path)
        if steps and steps[0] == cell:
            steps.popleft()
        return steps

    pos = start
    visited = [pos]
    replan_count = 0
    steps_taken = 0
    collided = False
    reached = pos == goal

    materialize(0)
    newly = {c for c in materialized - sensed if chebyshev(c, pos) <= scenario.sensing_radius}
    sensed |= newly
    working = grid.with_occupied(sensed) if sensed else grid

    upcoming: deque[GridPose] = deque()
    if not reached:
        upcoming = plan_from(pos)
        if upcoming is None:
            return ExecutionRecord(visited, False, False, 0, 0)

    tick = 0
    while upcoming and steps_taken < budget and not collided and not reached:
        tick += 1
        materialize(tick)
        nxt = upcoming.popleft()
        steps_taken += 1
        if not grid.is_free(nxt.x, nxt.y) or nxt in materialized:
            collided = True
            break
        pos = nxt
        visited.append(pos)
        if pos == goal:
            reached = True
            break
        newly = {c for c in materialized - sensed if chebyshev(c, pos) <= scenario.sensing_radius}
        if newly:
            sensed |= newly
            working = grid.with_occupied(sensed)
            remaining = set(upcoming)
            if newly & remaining:
                replan_count += 1
                upcoming = plan_from(pos) or deque()
    return ExecutionRecord(visited, collided, reached, replan_count, steps_taken)


# --- external path validation, as it was before each waypoint was read once ---


def reference_validate_external_path(scenario: Scenario, waypoints: list) -> PathValidation:
    """simulator.validate_external_path as it was before it read each waypoint once.

    A failing waypoint is looked at again, and reads "integer_pair" unless both
    its coordinates are ``int`` instances: on int-like (``__index__``) values
    the verdict depends on which rule fails first.
    """
    grid = scenario.map
    if not waypoints:
        return PathValidation(False, "start", 0)
    i = 0
    try:
        if GridPose(*waypoints[0]) != GridPose(*scenario.start):
            return _reference_violation("start", waypoints, 0)
        prev: GridPose | None = None
        for i, raw in enumerate(waypoints):
            p = raw if type(raw) is GridPose else GridPose(*raw)
            if prev is not None and abs(p.x - prev.x) + abs(p.y - prev.y) != 1:
                return _reference_violation("adjacency", waypoints, i)
            if not grid.is_free(p.x, p.y):
                return _reference_violation("freeness", waypoints, i)
            prev = p
    except TypeError:  # a waypoint that does not unpack to two numbers, or a float indexing the map
        return PathValidation(False, "integer_pair", i)
    if GridPose(*waypoints[-1]) != GridPose(*scenario.goal):
        return PathValidation(False, "goal", len(waypoints) - 1)
    return PathValidation(True)


def _reference_violation(rule: str, waypoints: list, i: int) -> PathValidation:
    try:
        x, y = waypoints[i]
    except (TypeError, ValueError):
        return PathValidation(False, "integer_pair", i)
    return PathValidation(False, rule if isinstance(x, int) and isinstance(y, int) else "integer_pair", i)
