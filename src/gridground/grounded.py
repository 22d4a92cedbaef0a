"""Stepwise planner that combines task scores with map affordances.

Each iteration scores the four cardinal candidate cells with a task-scorer
backend (p_gpt after normalization), weights them by a local traversability
affordance (p_util), and greedily executes the argmax of the product. The
per-step scores are kept; the audit trace is built from them on first read.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .classical import PlannedPath, check_endpoints
from .errors import OutOfBounds, ScorerFailure
from .gridmap import GridPose, OccupancyGrid
from .planners import MAX_PLAN_STEPS
from .scorers import TaskScorerQuery


class ActionId(Enum):
    UP = "up"
    RIGHT = "right"
    LEFT = "left"
    DOWN = "down"


class Action(NamedTuple):
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


class Instruction(NamedTuple):
    """Natural-language task text plus the goal cell it names."""

    text: str
    goal: GridPose


class ScoredAction(NamedTuple):
    """One candidate's scores: task term, affordance term, and their product."""

    action: Action
    candidate: GridPose
    p_gpt: float
    p_util: float
    p_combined: float


class PlannerConfig:
    """Knobs for plan, checked on construction.

    max_steps is 1 to MAX_PLAN_STEPS, or None for 4 * (width + height) of the grid at plan time.
    revisit_penalty multiplies p_combined of candidates already visited.
    Actions are always scored, and argmax ties broken, in ACTIONS order
    (up, right, left, down).
    """

    def __init__(self, max_steps: int | None = None, revisit_penalty: float = 0.5):
        if max_steps is not None and (not isinstance(max_steps, int) or isinstance(max_steps, bool)
                                      or not 1 <= max_steps <= MAX_PLAN_STEPS):
            raise ValueError(f"max_steps must be an integer from 1 to {MAX_PLAN_STEPS}, got {max_steps!r}")
        if not (0.0 <= revisit_penalty <= 1.0):
            raise ValueError(f"revisit_penalty must be in [0, 1], got {revisit_penalty}")
        self.max_steps, self.revisit_penalty = max_steps, revisit_penalty


TaskScorer = Callable[[TaskScorerQuery], Sequence[float]]

# builds a GridPose or TaskScorerQuery from a tuple of its fields, skipping the NamedTuple's Python-level __new__
_new = tuple.__new__


def _affordances(grid: OccupancyGrid, x: int, y: int) -> list[float]:
    """p_util of the four ACTIONS candidates of the on-grid cell (x, y), read from the free mask.

    0.0 for a candidate that is not Free (the mask's pad covers the ones off
    the grid), 1.0 when it and its four cardinal neighbours are Free, else 0.8.
    """
    mask, i = grid.free_mask, grid.flat_index(x, y)
    up, right, left, down = grid.flat_offsets[:4]  # ACTIONS order
    # a Free candidate is on the grid, so its cardinals are on the grid or its pad
    return [
        (1.0 if mask[c + up] and mask[c + right] and mask[c + left] and mask[c + down] else 0.8) if mask[c] else 0.0
        for c in (i + up, i + right, i + left, i + down)
    ]


def _candidates(x: int, y: int) -> tuple[GridPose, ...]:
    """The cells the four ACTIONS lead to from (x, y), in ACTIONS order."""
    return (_new(GridPose, (x, y - 1)), _new(GridPose, (x + 1, y)),
            _new(GridPose, (x - 1, y)), _new(GridPose, (x, y + 1)))


def _on_grid(grid: OccupancyGrid, s: GridPose) -> GridPose:
    """s as a GridPose; the kernel reads the mask around s, which covers on-grid cells only."""
    if not grid.in_bounds(s[0], s[1]):
        raise OutOfBounds(f"({s[0]},{s[1]}) outside {grid.width}x{grid.height} grid")
    return GridPose(*s)


def _score(
    scorer: TaskScorer, instruction: Instruction, grid: OccupancyGrid, s: GridPose
) -> tuple[tuple[GridPose, ...], list[float], list[float]]:
    """One scoring step from the on-grid cell s: (candidates, p_gpts, p_utils), each in ACTIONS order.

    Makes exactly one scorer call. Raw scores are normalized to sum to 1; an
    all-zero reply falls back to the uniform 0.25 so the affordance term
    alone can still steer.

    Raises:
        ScorerFailure: the backend raised one or returned unusable values.
    """
    x, y = s
    candidates = _candidates(x, y)
    reply = scorer(_new(TaskScorerQuery, (instruction, grid, s, candidates)))  # its own errors propagate
    try:  # not iterable, not numbers, or an int past the float range
        raw = [float(v) for v in reply]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScorerFailure(f"scorer reply is not numbers: {type(exc).__name__}: {exc}") from exc
    if len(raw) != 4:
        raise ScorerFailure(f"scorer returned {len(raw)} scores for {len(ACTIONS)} actions")
    a, b, c, d = raw
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf and 0.0 <= c < math.inf and 0.0 <= d < math.inf):
        raise ScorerFailure(f"scores must be finite and non-negative, got {raw}")
    total = a + b + c + d  # sum(raw) to the bit, bar the sign of an all-zero total
    p_gpts = [a / total, b / total, c / total, d / total] if total > 0 else [0.25, 0.25, 0.25, 0.25]
    return candidates, p_gpts, _affordances(grid, x, y)


def _argmax(
    combined: Iterable[float], candidates: Sequence[GridPose], visited: set[GridPose], penalty: float
) -> int | None:
    """Index of the largest revisit-adjusted combined score, the first on ties; None when all are 0."""
    best, best_v, k = None, 0.0, 0
    for v in combined:
        if candidates[k] in visited:
            v *= penalty
        if v > best_v:
            best, best_v = k, v
        k += 1
    return best


def affordance(grid: OccupancyGrid, s: GridPose, action: Action) -> float:
    """Traversability weight of taking ``action`` from ``s``.

    0.0 when the candidate cell is out of bounds or not Free; 1.0 when the
    candidate and all four of its cardinal neighbors are Free (in bounds);
    0.8 otherwise, discounting wall-adjacent cells.

    Raises:
        OutOfBounds: ``s`` itself is outside the grid.
    """
    s = _on_grid(grid, s)
    return _affordances(grid, s.x, s.y)[ACTIONS.index(action)]


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
        OutOfBounds: ``s`` is outside the grid.
        ScorerFailure: the backend failed or returned unusable values.
    """
    candidates, p_gpts, p_utils = _score(scorer, instruction, grid, _on_grid(grid, s))
    return [ScoredAction(a, c, g, u, g * u) for a, c, g, u in zip(ACTIONS, candidates, p_gpts, p_utils)]


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
    k = _argmax([sa.p_combined for sa in scored], [sa.candidate for sa in scored], visited, config.revisit_penalty)
    return None if k is None else scored[k]


class FailureReason(Enum):
    STUCK = "stuck"
    STEP_LIMIT = "step_limit"
    SCORER_FAILURE = "scorer_failure"


class StepRecord(NamedTuple):
    """Audit record of one planning iteration."""

    step: int
    state: GridPose
    scored: tuple[ScoredAction, ...]
    chosen: ScoredAction | None


# One plan iteration as plan records it: the state, its p_gpts and p_utils in
# ACTIONS order, and the index of the chosen action (None when Stuck).
StepScores = tuple[GridPose, list[float], list[float], int | None]


class PlanResult:
    """Outcome of plan: the path walked, the per-step scores, and any failure.

    failure is None on success; on failure ``path`` holds the partial path
    walked so far and ``steps`` still covers every iteration. A plain class,
    not a NamedTuple, as it keeps its trace once built.
    """

    def __init__(self, path: PlannedPath, steps: list[StepScores], failure: FailureReason | None = None,
                 detail: str = ""):
        self.path, self.steps, self.failure, self.detail = path, steps, failure, detail

    @property
    def succeeded(self) -> bool:
        return self.failure is None

    @cached_property
    def trace(self) -> list[StepRecord]:
        """The audit trace, one StepRecord per iteration; built from ``steps`` on first read."""
        trace = []
        for step, (s, p_gpts, p_utils, k) in enumerate(self.steps):
            scored = [
                ScoredAction(a, cand, p_gpt, p_util, p_gpt * p_util)
                for a, cand, p_gpt, p_util in zip(ACTIONS, _candidates(*s), p_gpts, p_utils)
            ]
            trace.append(StepRecord(step, s, tuple(scored), None if k is None else scored[k]))
        return trace


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
    s, goal = check_endpoints(grid, start, instruction.goal)
    max_steps = config.max_steps if config.max_steps is not None else 4 * (grid.width + grid.height)
    penalty = config.revisit_penalty

    waypoints = [s]
    visited = {s}
    steps: list[StepScores] = []
    if s == goal:
        return PlanResult(PlannedPath((s,), grid.resolution), steps)

    for _ in range(max_steps):
        try:
            candidates, p_gpts, p_utils = _score(scorer, instruction, grid, s)
        except ScorerFailure as exc:
            failure, detail = FailureReason.SCORER_FAILURE, str(exc)
            break
        k = _argmax(map(mul, p_gpts, p_utils), candidates, visited, penalty)
        steps.append((s, p_gpts, p_utils, k))
        if k is None:
            failure, detail = FailureReason.STUCK, f"all adjusted scores zero at ({s.x},{s.y})"
            break
        s = candidates[k]
        waypoints.append(s)
        visited.add(s)
        if s == goal:
            failure, detail = None, ""
            break
    else:
        failure, detail = FailureReason.STEP_LIMIT, f"goal not reached within {max_steps} steps"
    return PlanResult(PlannedPath(tuple(waypoints), grid.resolution), steps, failure, detail)


def trace_to_jsonl(trace: Sequence[StepRecord]) -> str:
    """Serialize a step trace as line-delimited JSON for audit logs."""
    import json

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
