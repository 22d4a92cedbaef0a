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
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Protocol

from .errors import InvalidScenario
from .gridmap import GridPose, OccupancyGrid, load_map

SCENARIO_VERSION = "scenario_v1"


@dataclass(frozen=True)
class DynamicObstacle:
    cell: GridPose
    appears_at_step: int


@dataclass
class Scenario:
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


@dataclass
class ExecutionRecord:
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
    10 * (width + height). Collision and goal arrival are mutually
    exclusive and both end the episode. When a sensed obstacle covers the
    goal, or the robot's cell at tick 0, the planner is not called and the
    plan counts as "no path": a first plan ends the episode before any
    step, a replan ends it with the cells walked so far.

    Raises:
        InvalidScenario: the scenario fails validation.
    """
    scenario.validate()
    grid = scenario.map
    budget = 10 * (grid.width + grid.height)
    start = GridPose(*scenario.start)
    goal = GridPose(*scenario.goal)

    materialized: set[GridPose] = set()
    sensed: set[GridPose] = set()
    unsensed: set[GridPose] = set()  # materialized - sensed
    pending = deque(sorted(scenario.dynamic_obstacles, key=attrgetter("appears_at_step")))

    def materialize(tick: int) -> None:
        while pending and pending[0].appears_at_step <= tick:
            cell = GridPose(*pending.popleft().cell)
            materialized.add(cell)
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
    sense(pos)
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
        if unsensed and (newly := sense(pos)):
            working = grid.with_occupied(sensed)
            if not newly.isdisjoint(upcoming):
                replan_count += 1
                upcoming = plan_from(pos) or deque()
    return ExecutionRecord(visited, collided, reached, replan_count, steps_taken)


@dataclass(frozen=True)
class PathValidation:
    """Verdict for an externally produced path; rule/index name the first violation."""

    valid: bool
    rule: str | None = None
    index: int | None = None


def validate_external_path(scenario: Scenario, waypoints: list[GridPose]) -> PathValidation:
    """Structural check for model-produced coordinate lists.

    Verifies start anchoring, four-connected step adjacency, freeness of
    every cell on the base map, and goal termination, returning the first
    violated rule with the waypoint index. Total: never raises.
    """
    grid = scenario.map
    if not waypoints or GridPose(*waypoints[0]) != GridPose(*scenario.start):
        return PathValidation(False, "start", 0)
    prev: GridPose | None = None
    for i, raw in enumerate(waypoints):
        p = GridPose(*raw)
        if prev is not None and abs(p.x - prev.x) + abs(p.y - prev.y) != 1:
            return PathValidation(False, "adjacency", i)
        if not grid.is_free(p.x, p.y):
            return PathValidation(False, "freeness", i)
        prev = p
    if GridPose(*waypoints[-1]) != GridPose(*scenario.goal):
        return PathValidation(False, "goal", len(waypoints) - 1)
    return PathValidation(True)


# --- scenario files (scenario_v1) ---


def _as_pose(value, label: str) -> GridPose:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise InvalidScenario(f"{label} must be a [x, y] integer pair, got {value!r}")
    return GridPose(value[0], value[1])


def load_yaml(text: str):
    """One YAML document, built by PyYAML's safe constructor.

    Scenario, suite and config files all parse here. The parser is libyaml's
    (``yaml.CSafeLoader``) when PyYAML was built with it, else PyYAML's own.
    ``yaml`` is imported on first use, so a run that reads no YAML never loads it.

    Raises:
        ValueError: the text is not YAML (the ``yaml.YAMLError`` is chained,
            its message kept), or holds an int past Python's digit limit.
    """
    import yaml

    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ValueError(str(exc)) from exc


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
    if not isinstance(doc, dict):
        raise InvalidScenario("scenario file must be a mapping")
    if doc.get("version") != SCENARIO_VERSION:
        raise InvalidScenario(
            f"unsupported scenario version {doc.get('version')!r}, expected {SCENARIO_VERSION!r}"
        )
    if ("map" in doc) == ("map_file" in doc):
        raise InvalidScenario("exactly one of 'map' or 'map_file' is required")
    if "map" in doc:
        map_text = doc["map"]
        if not isinstance(map_text, str):
            raise InvalidScenario("'map' must be inline ASCII map text")
    else:
        if base_dir is None:
            raise InvalidScenario("'map_file' requires a base directory to resolve against")
        if not isinstance(doc["map_file"], str):
            raise InvalidScenario(f"'map_file' must be a path string, got {doc['map_file']!r}")
        map_path = Path(base_dir) / doc["map_file"]
        try:  # a ValueError is a file that is not UTF-8, or a NUL in the path
            map_text = map_path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            raise InvalidScenario(f"cannot read map file {map_path}: {exc}") from exc
    try:
        grid = load_map(map_text)
    except Exception as exc:
        raise InvalidScenario(f"bad map: {exc}") from exc

    for key in ("start", "goal", "instruction_text"):
        if key not in doc:
            raise InvalidScenario(f"missing required field {key!r}")
    entries = doc.get("dynamic_obstacles") or []
    if not isinstance(entries, list):
        raise InvalidScenario(f"dynamic_obstacles must be a list, got {entries!r}")
    obstacles = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "cell" not in entry or "appears_at_step" not in entry:
            raise InvalidScenario(f"dynamic_obstacles[{i}] needs 'cell' and 'appears_at_step'")
        appears = entry["appears_at_step"]
        if not isinstance(appears, int) or isinstance(appears, bool):
            raise InvalidScenario(f"dynamic_obstacles[{i}].appears_at_step must be an integer")
        obstacles.append(DynamicObstacle(_as_pose(entry["cell"], f"dynamic_obstacles[{i}].cell"), appears))
    if not isinstance(doc["instruction_text"], str):
        raise InvalidScenario("instruction_text must be a string")
    sensing_radius = doc.get("sensing_radius", 1)
    if not isinstance(sensing_radius, int) or isinstance(sensing_radius, bool):
        raise InvalidScenario("sensing_radius must be an integer")

    scenario = Scenario(
        map=grid,
        start=_as_pose(doc["start"], "start"),
        goal=_as_pose(doc["goal"], "goal"),
        instruction_text=doc["instruction_text"],
        dynamic_obstacles=tuple(obstacles),
        sensing_radius=sensing_radius,
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file; map_file references resolve beside it."""
    p = Path(path)
    try:  # a ValueError is a file that is not UTF-8, or a NUL in the path
        text = p.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InvalidScenario(f"cannot read scenario file {p}: {exc}") from exc
    return parse_scenario(text, base_dir=p.parent)
