"""Stepwise planner that combines task scores with map affordances.

Each iteration scores the four cardinal candidate cells with a task-scorer
backend (p_gpt after normalization), weights them by a local traversability
affordance (p_util), and greedily executes the argmax of the product. The
full per-step scoring record is kept as an audit trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .classical import PlannedPath, check_endpoints
from .errors import ScorerFailure
from .gridmap import GridPose, OccupancyGrid
from .scorers import TaskScorerQuery


class ActionId(Enum):
    UP = "up"
    RIGHT = "right"
    LEFT = "left"
    DOWN = "down"


@dataclass(frozen=True)
class Action:
    """One primitive move: an id, a cell delta, and a human-readable label."""

    id: ActionId
    delta: tuple[int, int]
    description: str


# Canonical action set; its order is the scoring and tie-break order.
ACTIONS: tuple[Action, ...] = (
    Action(ActionId.UP, (0, -1), "move up one cell"),
    Action(ActionId.RIGHT, (1, 0), "move right one cell"),
    Action(ActionId.LEFT, (-1, 0), "move left one cell"),
    Action(ActionId.DOWN, (0, 1), "move down one cell"),
)


@dataclass(frozen=True)
class Instruction:
    """Natural-language task text plus the goal cell it names."""

    text: str
    goal: GridPose


@dataclass(frozen=True)
class ScoredAction:
    """One candidate's scores: task term, affordance term, and their product."""

    action: Action
    candidate: GridPose
    p_gpt: float
    p_util: float
    p_combined: float


@dataclass
class PlannerConfig:
    """Knobs for plan.

    max_steps None derives 4 * (width + height) from the grid at plan time.
    revisit_penalty multiplies p_combined of candidates already visited.
    Actions are always scored, and argmax ties broken, in ACTIONS order
    (up, right, left, down).
    """

    max_steps: int | None = None
    revisit_penalty: float = 0.5

    def __post_init__(self):
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (0.0 <= self.revisit_penalty <= 1.0):
            raise ValueError(f"revisit_penalty must be in [0, 1], got {self.revisit_penalty}")


TaskScorer = Callable[[TaskScorerQuery], Sequence[float]]


def affordance(grid: OccupancyGrid, s: GridPose, action: Action) -> float:
    """Traversability weight of taking ``action`` from ``s``.

    0.0 when the candidate cell is out of bounds or not Free; 1.0 when the
    candidate and all four of its cardinal neighbors are Free (in bounds);
    0.8 otherwise, discounting wall-adjacent cells.
    """
    cx, cy = s[0] + action.delta[0], s[1] + action.delta[1]
    if not grid.is_free(cx, cy):
        return 0.0
    # a Free candidate is on the map, so its cardinals are on the map or its pad
    mask, i = grid.free_mask, grid.flat_index(cx, cy)
    for o in grid.flat_offsets[:4]:
        if not mask[i + o]:
            return 0.8
    return 1.0


def score_candidates(
    scorer: TaskScorer,
    instruction: Instruction,
    grid: OccupancyGrid,
    s: GridPose,
) -> list[ScoredAction]:
    """Run one scorer call and attach normalized task and affordance terms.

    Raw scores are normalized to sum to 1 across the four actions; an
    all-zero reply falls back to the uniform 0.25 so the affordance term
    alone can still steer. Exactly one scorer call is made.

    Raises:
        ScorerFailure: the backend failed or returned unusable values.
    """
    candidates = tuple(GridPose(s[0] + a.delta[0], s[1] + a.delta[1]) for a in ACTIONS)
    query = TaskScorerQuery(instruction=instruction, grid=grid, state=GridPose(*s), candidates=candidates)
    try:
        raw = [float(v) for v in scorer(query)]
    except ScorerFailure:
        raise
    except Exception as exc:  # a buggy backend must surface as a scorer failure
        raise ScorerFailure(f"scorer raised {type(exc).__name__}: {exc}") from exc
    if len(raw) != len(ACTIONS):
        raise ScorerFailure(f"scorer returned {len(raw)} scores for {len(ACTIONS)} actions")
    if any(not (0.0 <= v < math.inf) for v in raw):
        raise ScorerFailure(f"scores must be finite and non-negative, got {raw}")
    total = sum(raw)
    p_gpts = [v / total for v in raw] if total > 0 else [1.0 / len(ACTIONS)] * len(ACTIONS)
    scored = []
    for a, cand, p_gpt in zip(ACTIONS, candidates, p_gpts):
        p_util = affordance(grid, s, a)
        scored.append(ScoredAction(a, cand, p_gpt, p_util, p_gpt * p_util))
    return scored


def select_action(
    scored: Sequence[ScoredAction], visited: set[GridPose], config: PlannerConfig
) -> ScoredAction | None:
    """Argmax of revisit-adjusted p_combined; None signals Stuck.

    ``scored`` must be in ACTIONS order, so the first maximum wins ties.
    Returns None when every adjusted score is zero, which guarantees a
    selected action always has p_util > 0.
    """
    if len(scored) != 4:
        raise ValueError(f"expected 4 scored actions, got {len(scored)}")
    best: ScoredAction | None = None
    best_v = 0.0
    for sa in scored:
        v = sa.p_combined * (config.revisit_penalty if sa.candidate in visited else 1.0)
        if v > best_v:
            best, best_v = sa, v
    return best


class FailureReason(Enum):
    STUCK = "stuck"
    STEP_LIMIT = "step_limit"
    SCORER_FAILURE = "scorer_failure"


@dataclass(frozen=True)
class StepRecord:
    """Audit record of one planning iteration."""

    step: int
    state: GridPose
    scored: tuple[ScoredAction, ...]
    chosen: ScoredAction | None


@dataclass
class PlanResult:
    """Outcome of plan: the path walked, the trace, and any failure.

    failure is None on success; on failure ``path`` holds the partial path
    walked so far and the trace still covers every iteration.
    """

    path: PlannedPath
    trace: list[StepRecord]
    failure: FailureReason | None = None
    detail: str = ""

    @property
    def succeeded(self) -> bool:
        return self.failure is None


def plan(
    scorer: TaskScorer,
    grid: OccupancyGrid,
    start: GridPose,
    instruction: Instruction,
    config: PlannerConfig | None = None,
) -> PlanResult:
    """Greedy scored walk from start toward the instruction's goal.

    Loops score -> select -> step until the goal is reached, issuing exactly
    one scorer call per iteration and at most max_steps in total. A start
    equal to the goal succeeds immediately with zero scorer calls.

    Raises:
        InvalidEndpoint: start or goal out of bounds or not Free.
    """
    config = config or PlannerConfig()
    goal = GridPose(*instruction.goal)
    check_endpoints(grid, start, goal)
    max_steps = config.max_steps if config.max_steps is not None else 4 * (grid.width + grid.height)

    s = GridPose(*start)
    waypoints = [s]
    visited = {s}
    trace: list[StepRecord] = []
    if s == goal:
        return PlanResult(PlannedPath((s,), grid.resolution), trace)

    for step in range(max_steps):
        try:
            scored = score_candidates(scorer, instruction, grid, s)
        except ScorerFailure as exc:
            return PlanResult(
                PlannedPath(tuple(waypoints), grid.resolution),
                trace,
                FailureReason.SCORER_FAILURE,
                detail=str(exc),
            )
        choice = select_action(scored, visited, config)
        trace.append(StepRecord(step, s, tuple(scored), choice))
        if choice is None:
            return PlanResult(
                PlannedPath(tuple(waypoints), grid.resolution),
                trace,
                FailureReason.STUCK,
                detail=f"all adjusted scores zero at ({s.x},{s.y})",
            )
        s = choice.candidate
        waypoints.append(s)
        visited.add(s)
        if s == goal:
            return PlanResult(PlannedPath(tuple(waypoints), grid.resolution), trace)
    return PlanResult(
        PlannedPath(tuple(waypoints), grid.resolution),
        trace,
        FailureReason.STEP_LIMIT,
        detail=f"goal not reached within {max_steps} steps",
    )


def trace_to_jsonl(trace: Sequence[StepRecord]) -> str:
    """Serialize a step trace as line-delimited JSON for audit logs."""
    lines = []
    for rec in trace:
        lines.append(
            json.dumps(
                {
                    "step": rec.step,
                    "state": [rec.state.x, rec.state.y],
                    "candidates": [
                        {
                            "action": sa.action.id.value,
                            "candidate": [sa.candidate.x, sa.candidate.y],
                            "p_gpt": sa.p_gpt,
                            "p_util": sa.p_util,
                            "p_combined": sa.p_combined,
                        }
                        for sa in rec.scored
                    ],
                    "chosen": rec.chosen.action.id.value if rec.chosen else None,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
