"""Planner kinds: the adapters that `gridground plan` and bench trials drive, and the registry of planner ids.

Only the kinds that use grounded, scorers or translator import them, so an A* or RRT plan never loads them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from .classical import RrtParams, astar, rrt
from .errors import MalformedReply, UnknownPlanner
from .gridmap import Connectivity, GridPose, as_connectivity

if TYPE_CHECKING:
    from .grounded import PlannerConfig
    from .simulator import Scenario, SimPlanner

MAX_PLAN_STEPS = 100_000  # grounded.PlannerConfig.max_steps; a walk keeps every step's scores


# --- planner adapters -------------------------------------------------------
# The only planning code, built by `build_planner` below. A grounded adapter
# calls its scorer once per step, a fullpath adapter the scorer's `route` once
# per path. After a plan that returned None, `failure` says why.


class AstarPlanner:
    failure = "no path found"

    def __init__(self, connectivity: Connectivity = Connectivity.FOUR):
        self.connectivity = connectivity

    def plan(self, grid, start, goal, instruction_text):
        p = astar(grid, start, goal, self.connectivity)
        return list(p.waypoints) if p else None


class RrtPlanner:
    failure = "no path found"

    def __init__(self, params: RrtParams):
        self.params = params

    def plan(self, grid, start, goal, instruction_text):
        p = rrt(grid, start, goal, self.params)
        return list(p.waypoints) if p else None


class GroundedPlanner:
    failure = ""

    def __init__(self, scorer, config: PlannerConfig | None = None):
        self.scorer = scorer
        self.config = config

    def plan(self, grid, start, goal, instruction_text):
        from .grounded import Instruction, plan as grounded_plan

        result = grounded_plan(self.scorer, grid, start, Instruction(instruction_text, GridPose(*goal)), self.config)
        if not result.succeeded:
            steps = len(result.path.waypoints) - 1
            self.failure = f"{result.failure.value} ({result.detail}) after {steps} steps"
            return None
        return list(result.path.waypoints)


class FullpathPlanner:
    failure = ""

    def __init__(self, scorer):
        self.scorer = scorer

    def plan(self, grid, start, goal, instruction_text):
        from .grounded import Instruction
        from .translator import parse_coordinate_list

        start, goal = GridPose(*start), GridPose(*goal)
        if start == goal:  # nothing to ask the model
            return [start]
        try:
            reply = self.scorer.route(grid, start, Instruction(instruction_text, goal))
            parsed = parse_coordinate_list(reply)
        except MalformedReply as exc:
            self.failure = str(exc)
            return None
        return list(parsed.waypoints)


# --- registry ---------------------------------------------------------------


class TrialPlanner(NamedTuple):
    """A planner instance plus the scorer whose wall time must be tracked."""

    planner: SimPlanner
    scorer: object | None = None


PlannerFactory = Callable[["Scenario", int], TrialPlanner]


def build_planner(kind: str, scorer=None, seed: int = 0, connectivity: int = 4,
                  max_steps: int | None = None) -> TrialPlanner:
    """The adapter for one planner kind, for the registry and `gridground plan` alike.

    ``scorer`` is the backend of ``grounded`` and ``fullpath``; only a grounded
    adapter's scorer is tracked, so a fullpath reply counts as planning time.

    Raises:
        UnknownPlanner: kind is not astar, rrt, grounded or fullpath.
        InvalidParams: an astar connectivity other than 4 or 8.
    """
    if kind == "astar":
        return TrialPlanner(AstarPlanner(as_connectivity(connectivity)))
    if kind == "rrt":
        return TrialPlanner(RrtPlanner(RrtParams(seed=seed)))
    if kind == "grounded":
        from .grounded import PlannerConfig

        return TrialPlanner(GroundedPlanner(scorer, PlannerConfig(max_steps=max_steps)), scorer)
    if kind == "fullpath":
        return TrialPlanner(FullpathPlanner(scorer))
    raise UnknownPlanner(f"unknown planner {kind!r} (expected astar, rrt, grounded, or fullpath)")


def _scorer(name: str):
    from . import scorers

    return scorers.MockScorer(tau=0.5) if name == "mock" else scorers.OracleScorer()


_REGISTRY: dict[str, PlannerFactory] = {
    "astar": lambda scenario, seed: build_planner("astar"),
    "rrt": lambda scenario, seed: build_planner("rrt", seed=seed),
    "grounded:mock": lambda scenario, seed: build_planner("grounded", _scorer("mock")),
    "grounded:oracle": lambda scenario, seed: build_planner("grounded", _scorer("oracle")),
    "fullpath:mock": lambda scenario, seed: build_planner("fullpath", _scorer("mock")),
    "fullpath:oracle": lambda scenario, seed: build_planner("fullpath", _scorer("oracle")),
}


def register_planner(planner_id: str, factory: PlannerFactory) -> None:
    """Add or replace a planner id (e.g. a remote-backed grounded planner)."""
    _REGISTRY[planner_id] = factory


def _factory(planner_id: str) -> PlannerFactory:
    factory = _REGISTRY.get(planner_id)
    if factory is None:
        raise UnknownPlanner(f"unknown planner id {planner_id!r}; registered: {sorted(_REGISTRY)}")
    return factory


def make_planner(planner_id: str, scenario: Scenario, seed: int) -> TrialPlanner:
    return _factory(planner_id)(scenario, seed)
