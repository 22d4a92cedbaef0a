"""Discrete execution: walk planned paths, reveal dynamic obstacles, replan.

Tick order is fixed and load-bearing for the collision semantics: at tick t
the obstacles with appears_at_step <= t materialize first, then the robot
takes its move (stepping onto any occupied cell collides), then it senses
within the Chebyshev sensing radius, and only a newly sensed obstacle lying
on the remaining path triggers a replan. An obstacle can therefore defeat
sensing by appearing on the robot's next cell in the same tick.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter, index
from pathlib import Path
from typing import NamedTuple, Protocol

from .errors import InvalidScenario, MapFormatError
from .gridmap import GridPose, OccupancyGrid, load_map
from .inputs import INTEGER, MAPPINGS, PATH, STRING, FieldKind, brief_repr, load_yaml, read_field

SCENARIO_VERSION = "scenario_v1"


class DynamicObstacle(NamedTuple):
    cell: GridPose
    appears_at_step: int


class Scenario(NamedTuple):
    """One executable task: a map, endpoints, and the dynamic environment."""

    map: OccupancyGrid
    start: GridPose
    goal: GridPose
    instruction_text: str
    dynamic_obstacles: tuple[DynamicObstacle, ...] = ()
    sensing_radius: int = 1

    def validate(self) -> None:
        grid = self.map
        for name, p in (("start", self.start), ("goal", self.goal)):
            if not grid.in_bounds(p[0], p[1]):
                raise InvalidScenario(f"{name} ({p[0]},{p[1]}) outside the map")
            if not grid.is_free(p[0], p[1]):
                raise InvalidScenario(f"{name} ({p[0]},{p[1]}) is not Free on the base map")
        if not self.instruction_text:
            raise InvalidScenario("instruction_text must be non-empty")
        if self.sensing_radius < 1:
            raise InvalidScenario(f"sensing_radius must be >= 1, got {self.sensing_radius}")
        for ob in self.dynamic_obstacles:
            if ob.appears_at_step < 0:
                raise InvalidScenario(f"appears_at_step must be >= 0, got {ob.appears_at_step}")
            if not grid.in_bounds(ob.cell[0], ob.cell[1]):
                raise InvalidScenario(f"obstacle cell ({ob.cell[0]},{ob.cell[1]}) outside the map")


class ExecutionRecord(NamedTuple):
    """What actually happened: the walked cells and the outcome flags."""

    visited: list[GridPose]
    collided: bool
    reached_goal: bool
    replan_count: int
    steps_taken: int


class SimPlanner(Protocol):
    """Planner interface the executor drives.

    ``plan`` is called for the first plan and again, from the current cell
    on the sensed grid, for every replan. It returns a waypoint list
    (ideally starting at the given cell and ending at the goal) or None when
    no path could be produced.
    """

    def plan(
        self, grid: OccupancyGrid, start: GridPose, goal: GridPose, instruction_text: str
    ) -> list[GridPose] | None:
        ...


def _chebyshev(a: GridPose, b: GridPose) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def execute(scenario: Scenario, planner: SimPlanner) -> ExecutionRecord:
    """Run one episode under the tick order documented in the module docstring.

    The robot walks one waypoint per tick within a global step budget of
    10 * (width + height). The record is returned where the walk ends: at
    a collision, at the goal, or when the plan or the budget runs out, so
    collided and reached_goal are never both true and steps_taken is the
    last tick. When a sensed obstacle covers the goal, or the robot's cell
    at tick 0, the planner is not called and the plan counts as "no path":
    a first plan ends the episode before any step, a replan ends it with
    the cells walked so far.

    Raises:
        InvalidScenario: the scenario fails validation.
    """
    scenario.validate()
    grid = scenario.map
    budget = 10 * (grid.width + grid.height)
    start = GridPose(*scenario.start)
    goal = GridPose(*scenario.goal)

    sensed: set[GridPose] = set()
    unsensed: set[GridPose] = set()  # materialized, not yet sensed
    pending = deque(sorted(scenario.dynamic_obstacles, key=attrgetter("appears_at_step")))

    def materialize(tick: int) -> None:
        while pending and pending[0].appears_at_step <= tick:
            cell = GridPose(*pending.popleft().cell)
            if cell not in sensed:
                unsensed.add(cell)

    def sense(pos: GridPose) -> set[GridPose]:
        """Move the unsensed materialized cells within the sensing radius into sensed; returns them."""
        newly = {c for c in unsensed if _chebyshev(c, pos) <= scenario.sensing_radius}
        sensed.update(newly)
        unsensed.difference_update(newly)
        return newly

    def plan_from(cell: GridPose) -> deque[GridPose] | None:
        """The planner's waypoints from ``cell`` on the sensed grid, ``cell`` itself dropped.

        None, without asking the planner, when the sensed grid blocks either endpoint.
        """
        if not (working.is_free(cell.x, cell.y) and working.is_free(goal.x, goal.y)):
            return None
        path = planner.plan(working, cell, goal, scenario.instruction_text)
        if path is None:
            return None
        steps = deque(p if type(p) is GridPose else GridPose(*p) for p in path)  # rewrap only foreign pairs
        if steps and steps[0] == cell:
            steps.popleft()
        return steps

    pos = start
    visited = [pos]
    replan_count = 0

    materialize(0)
    sense(pos)
    working = grid.with_occupied(sensed) if sensed else grid
    if pos == goal:
        return ExecutionRecord(visited, False, True, 0, 0)
    upcoming = plan_from(pos)
    if upcoming is None:
        return ExecutionRecord(visited, False, False, 0, 0)

    tick = 0
    while upcoming and tick < budget:
        tick += 1
        materialize(tick)
        nxt = upcoming.popleft()
        if not grid.is_free(nxt.x, nxt.y) or nxt in unsensed or nxt in sensed:
            return ExecutionRecord(visited, True, False, replan_count, tick)
        pos = nxt
        visited.append(pos)
        if pos == goal:
            return ExecutionRecord(visited, False, True, replan_count, tick)
        if unsensed and (newly := sense(pos)):
            working = grid.with_occupied(sensed)
            if not newly.isdisjoint(upcoming):
                replan_count += 1
                upcoming = plan_from(pos) or deque()
    return ExecutionRecord(visited, False, False, replan_count, tick)


class PathValidation(NamedTuple):
    """Verdict for an externally produced path; rule/index name the first violation."""

    valid: bool
    rule: str | None = None
    index: int | None = None


def validate_external_path(scenario: Scenario, waypoints: list[GridPose]) -> PathValidation:
    """Structural check for model-produced coordinate lists.

    Reads each waypoint once, as two integers: an ``int`` or anything
    ``operator.index`` takes. A waypoint that does not unpack that way (None,
    a string, a triple, a float pair) fails rule "integer_pair" at its index.
    The integers are then checked for start anchoring, four-connected step
    adjacency, freeness of every cell on the base map, and goal termination,
    returning the first violated rule with the waypoint index. Total: never raises.
    """
    grid = scenario.map
    if not waypoints:
        return PathValidation(False, "start", 0)
    px, py = scenario.start
    for i, w in enumerate(waypoints):
        try:
            x, y = w
            x, y = index(x), index(y)
        except (TypeError, ValueError):  # not two items, or an item that is no integer
            return PathValidation(False, "integer_pair", i)
        if abs(x - px) + abs(y - py) != (i > 0):  # the first waypoint is the start, each later one a step away
            return PathValidation(False, "adjacency" if i else "start", i)
        if not grid.is_free(x, y):
            return PathValidation(False, "freeness", i)
        px, py = x, y
    if (px, py) != tuple(scenario.goal):
        return PathValidation(False, "goal", len(waypoints) - 1)
    return PathValidation(True)


# --- scenario files (scenario_v1) ---

POSE = FieldKind("a [x, y] integer pair", lambda v: isinstance(v, list) and len(v) == 2 and all(map(INTEGER.accepts, v)),
                 lambda v: GridPose(*v))


def parse_scenario(text: str, base_dir: str | Path | None = None) -> Scenario:
    """Parse a scenario_v1 document.

    The map is either inline ASCII under ``map`` or a relative file
    reference under ``map_file`` resolved against ``base_dir``.

    Raises:
        InvalidScenario: structural problems, version mismatch, bad fields.
    """
    try:
        doc = load_yaml(text)
    except ValueError as exc:
        raise InvalidScenario(f"unparseable scenario file: {exc}") from exc
    version = read_field(doc, "version", STRING, InvalidScenario, default=None)
    if version != SCENARIO_VERSION:
        raise InvalidScenario(f"unsupported scenario version {brief_repr(version)}, expected {SCENARIO_VERSION!r}")
    if ("map" in doc) == ("map_file" in doc):
        raise InvalidScenario("exactly one of 'map' or 'map_file' is required")
    if "map" in doc:
        map_text = read_field(doc, "map", STRING._replace(what="inline ASCII map text"), InvalidScenario)
    else:
        if base_dir is None:
            raise InvalidScenario("'map_file' requires a base directory to resolve against")
        map_path = Path(base_dir) / read_field(doc, "map_file", PATH, InvalidScenario)
        try:  # a ValueError is a file that is not UTF-8, or a NUL in the path
            map_text = map_path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            raise InvalidScenario(f"cannot read map file {map_path}: {exc}") from exc
    try:
        grid = load_map(map_text)
    except MapFormatError as exc:
        raise InvalidScenario(f"bad map: {exc}") from exc

    scenario = Scenario(
        map=grid,
        start=read_field(doc, "start", POSE, InvalidScenario),
        goal=read_field(doc, "goal", POSE, InvalidScenario),
        instruction_text=read_field(doc, "instruction_text", STRING, InvalidScenario),
        dynamic_obstacles=tuple(
            DynamicObstacle(
                read_field(entry, "cell", POSE, InvalidScenario, f"dynamic_obstacles[{i}]"),
                read_field(entry, "appears_at_step", INTEGER, InvalidScenario, f"dynamic_obstacles[{i}]"),
            )
            for i, entry in enumerate(read_field(doc, "dynamic_obstacles", MAPPINGS, InvalidScenario, default=()))
        ),
        sensing_radius=read_field(doc, "sensing_radius", INTEGER, InvalidScenario, default=1),
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file; map_file references resolve beside it.

    Raises:
        InvalidScenario: the file cannot be read, or ``parse_scenario`` rejects
            it; either way the message names the file.
    """
    p = Path(path)
    try:  # a ValueError is a file that is not UTF-8, or a NUL in the path
        text = p.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InvalidScenario(f"cannot read scenario file {p}: {exc}") from exc
    try:
        return parse_scenario(text, base_dir=p.parent)
    except InvalidScenario as exc:
        raise InvalidScenario(f"{p}: {exc}") from exc
