"""Discrete execution: walk planned paths, reveal dynamic obstacles, replan.

Tick order is fixed and load-bearing for the collision semantics: at tick t
the obstacles with appears_at_step <= t materialize first, then the robot
takes its move (stepping onto any occupied cell collides), then it senses
within the Chebyshev sensing radius, and only a newly sensed obstacle lying
on the remaining path triggers a replan. An obstacle can therefore defeat
sensing by appearing on the robot's next cell in the same tick.
"""

from __future__ import annotations

import sys
from collections import deque
from operator import attrgetter, index
from pathlib import Path
from typing import Any, Callable, NamedTuple, Protocol

from .errors import InvalidScenario, MapFormatError
from .gridmap import GridPose, OccupancyGrid, load_map

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
        if not grid.is_free(nxt.x, nxt.y) or nxt in materialized:
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


# --- YAML files: the parser, the typed field reader, and scenario files (scenario_v1) ---


MAX_YAML_DEPTH = 64  # the bundled files nest 3 deep


def load_yaml(text: str):
    """One YAML document, built by PyYAML's safe constructor.

    Scenario, suite and config files all parse here. The parser is libyaml's
    (``yaml.CSafeLoader``) when PyYAML was built with it, else PyYAML's own.
    ``yaml`` is imported on first use, so a run that reads no YAML never loads it.

    Raises:
        ValueError: the text is not YAML (the ``yaml.YAMLError`` is chained,
            its message made one line), nests deeper than MAX_YAML_DEPTH, or
            holds an int past Python's digit limit.
    """
    import yaml

    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        _check_depth(yaml.parse(text, Loader=loader))
        return yaml.load(text, Loader=loader)
    except yaml.MarkedYAMLError as exc:  # its str names "<unicode string>" and spans up to four lines
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ValueError(f"{exc.problem}{where}" + (f" ({exc.context})" if exc.context else "")) from exc
    except yaml.YAMLError as exc:  # a ReaderError: a character YAML does not allow
        raise ValueError(f"{str(exc).splitlines()[0]} at offset {exc.position}") from exc


def _check_depth(events) -> None:
    """Raise ValueError when the events nest more than MAX_YAML_DEPTH collections.

    An alias counts as the collections of the node it names, as the built value
    holds that node. The composer recurses once per level, in C under libyaml,
    so it would overflow the stack; the parser yields its events from a loop.
    """
    import yaml

    too_deep = f"the document nests deeper than {MAX_YAML_DEPTH} collections"
    heights: dict[str | None, int] = {}  # anchor -> collection levels of the node it names
    open_ = [[None, 0]]  # the document, then per open collection: its anchor, the most levels below it so far
    for event in events:
        if isinstance(event, yaml.CollectionStartEvent):
            if len(open_) > MAX_YAML_DEPTH:  # stop here: libyaml scans a deep flow collection in quadratic time
                raise ValueError(too_deep)
            open_.append([event.anchor, 0])
        elif isinstance(event, yaml.CollectionEndEvent):
            anchor, below = open_.pop()
            if below >= MAX_YAML_DEPTH:  # deeper through the aliases below it
                raise ValueError(too_deep)
            heights[anchor] = below + 1
            open_[-1][1] = max(open_[-1][1], below + 1)
        elif isinstance(event, yaml.AliasEvent):  # 0 for a scalar, or for a collection the alias is inside of
            open_[-1][1] = max(open_[-1][1], heights.get(event.anchor, 0))


class FieldKind(NamedTuple):
    """A YAML field's kind: its name in errors, the test of a parsed value, and what the value becomes."""

    what: str
    accepts: Callable[[Any], bool]
    build: Callable[[Any], Any] = lambda v: v
    listed: bool = False  # a list is named in errors by its bare path, as the fields of its items are


STRING = FieldKind("a string", lambda v: isinstance(v, str))
PATH = STRING._replace(what="a path string")
INTEGER = FieldKind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
# an int past the float range would overflow float()
NUMBER = FieldKind("a number", lambda v: isinstance(v, float) or INTEGER.accepts(v) and abs(v) <= sys.float_info.max, float)
POSE = FieldKind("a [x, y] integer pair", lambda v: isinstance(v, list) and len(v) == 2 and all(map(INTEGER.accepts, v)),
                 lambda v: GridPose(*v))
MAPPING = FieldKind("a mapping", lambda v: isinstance(v, dict))
MAPPINGS = FieldKind("a list of mappings", lambda v: isinstance(v, list) and all(map(MAPPING.accepts, v)), listed=True)
STRINGS = FieldKind("a list of strings", lambda v: isinstance(v, list) and all(map(STRING.accepts, v)), listed=True)
_REQUIRED = object()


def read_field(doc, key: str, kind: FieldKind, error: type[Exception], where: str = "", default=_REQUIRED):
    """The value of ``doc[key]``, checked and built as ``kind``; ``default`` when absent or null.

    Without a ``default`` the key is required. ``where`` is the path of ``doc`` in its file,
    so that an error names the field as ``dynamic_obstacles[2].cell`` and shows its value.

    Raises:
        error: ``doc`` is not a mapping, or the field is missing or not of ``kind``.
    """
    if not isinstance(doc, dict):
        raise error(f"the document must be a mapping, got {doc!r}")
    name = f"{where}.{key}" if where else key if kind.listed else repr(key)  # 'map_file', dynamic_obstacles, scenarios[0].file
    value = doc.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in doc:
        raise error(f"missing required field {name}")
    if not kind.accepts(value):
        raise error(f"{name} must be {kind.what}, got {value!r}")
    return kind.build(value)


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
        raise InvalidScenario(f"unsupported scenario version {version!r}, expected {SCENARIO_VERSION!r}")
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
