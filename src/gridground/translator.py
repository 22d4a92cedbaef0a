"""Prompt rendering and reply parsing for chat-based planning (grammar_v1).

Serializers are byte-deterministic: equal inputs produce identical text.
Parsers are total: any input either parses or raises MalformedReply, never
anything else.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import MalformedReply, OutOfBounds, OverlappingMarkers
from .gridmap import GridPose, OccupancyGrid

if TYPE_CHECKING:
    from .grounded import Instruction

GRAMMAR_VERSION = "grammar_v1"

SYSTEM_TEXT = (
    f"You are a navigation assistant for a 2-D occupancy grid ({GRAMMAR_VERSION}). "
    "Grid characters: '.' free, '#' occupied, '?' unknown, 'R' robot, 'G' goal. "
    "Coordinates are (x,y): x is the column, y is the row, (0,0) is the top-left "
    "cell and y grows downward. "
    "Answer with exactly the reply line requested and nothing else."
)


class StepPrompt(NamedTuple):
    system_text: str
    user_text: str


class CoordinateReply(NamedTuple):
    waypoints: tuple[GridPose, ...]


def map_header(grid: OccupancyGrid) -> str:
    """The line that opens a prompt's map block."""
    return f"map {grid.width}x{grid.height}\n"


def check_markers(grid: OccupancyGrid, state: GridPose, goal: GridPose) -> None:
    """Raise OverlappingMarkers when state and goal are one cell, else OutOfBounds when either is off the grid."""
    if state[0] == goal[0] and state[1] == goal[1]:
        raise OverlappingMarkers(
            f"robot and goal both at ({state[0]},{state[1]}); a trivially solved "
            "query must be handled before prompt construction"
        )
    for name, p in (("robot", state), ("goal", goal)):
        if not grid.in_bounds(p[0], p[1]):
            raise OutOfBounds(f"{name} marker ({p[0]},{p[1]}) outside {grid.width}x{grid.height} grid")


def _render_map(grid: OccupancyGrid, state: GridPose, goal: GridPose) -> str:
    check_markers(grid, state, goal)
    text, i, j = grid.text, grid.text_index(state[0], state[1]), grid.text_index(goal[0], goal[1])
    if i < j:
        return f"{text[:i]}R{text[i + 1:j]}G{text[j + 1:]}"
    return f"{text[:j]}G{text[j + 1:i]}R{text[i + 1:]}"


def step_tail(state: GridPose, instruction: "Instruction", candidates: Sequence[GridPose]) -> str:
    """The step prompt's user text after its map: instruction, positions, candidates, reply grammar."""
    goal = instruction.goal
    c_up, c_right, c_left, c_down = candidates
    return (
        f"\n\nInstruction: {instruction.text}\n\n"
        f"The robot R is at ({state[0]},{state[1]}). The goal G is at ({goal[0]},{goal[1]}).\n"
        f"Candidate moves:\n"
        f"  up -> ({c_up[0]},{c_up[1]})\n"
        f"  right -> ({c_right[0]},{c_right[1]})\n"
        f"  left -> ({c_left[0]},{c_left[1]})\n"
        f"  down -> ({c_down[0]},{c_down[1]})\n"
        f"Rate each candidate with a non-negative score for being the best next step.\n"
        f"Reply with exactly one line: scores: <up> <right> <left> <down>\n"
    )


def fullpath_tail(start: GridPose, instruction: "Instruction") -> str:
    """The whole-path prompt's user text after its map: instruction, positions, reply grammar."""
    goal = instruction.goal
    return (
        f"\n\nInstruction: {instruction.text}\n\n"
        f"The robot R is at ({start[0]},{start[1]}). The goal G is at ({goal[0]},{goal[1]}).\n"
        f"Plan a complete route from R to G moving only up, right, left, or down "
        f"through free cells.\n"
        f"Reply with exactly one line: path: (x1,y1) (x2,y2) ...\n"
    )


def serialize_step_prompt(
    grid: OccupancyGrid,
    state: GridPose,
    instruction: "Instruction",
    candidates: Sequence[GridPose],
) -> StepPrompt:
    """Render the single-step scoring prompt: ``map_header``, the map, ``step_tail``.

    The user text holds exactly one map block (header line ``map <w>x<h>``
    then the grid with R/G markers), the instruction, and the four candidate
    moves in up/right/left/down order. Candidates may lie outside the grid
    or on blocked cells; they are printed as raw coordinates either way.

    Raises:
        OverlappingMarkers: state and goal are the same cell.
        OutOfBounds: state or goal lies outside the grid.
    """
    tail = step_tail(state, instruction, candidates)
    return StepPrompt(SYSTEM_TEXT, f"{map_header(grid)}{_render_map(grid, state, instruction.goal)}{tail}")


def serialize_fullpath_prompt(
    grid: OccupancyGrid, start: GridPose, instruction: "Instruction"
) -> StepPrompt:
    """Render the whole-path prompt: ``map_header``, the map, ``fullpath_tail``; the reply grammar is a path: line.

    Raises:
        OverlappingMarkers: start and goal are the same cell.
        OutOfBounds: start or goal lies outside the grid.
    """
    tail = fullpath_tail(start, instruction)
    return StepPrompt(SYSTEM_TEXT, f"{map_header(grid)}{_render_map(grid, start, instruction.goal)}{tail}")


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
# a cell coordinate has at most 9 digits: no map is a billion cells wide, and
# every such int converts to a float, as path lengths need
_PAIR_LINE_RE = re.compile(r"\s*(?:\(\s*\d{1,9}\s*,\s*\d{1,9}\s*\)\s*)+")


def _as_text(reply: object) -> str:
    if isinstance(reply, bytes):
        return reply.decode("utf-8", errors="replace")
    if isinstance(reply, str):
        return reply
    raise MalformedReply(f"reply must be text, got {type(reply).__name__}")


def parse_action_scores(reply: str | bytes) -> tuple[float, float, float, float]:
    """Extract four scores from the last ``scores:`` line of a reply.

    Tolerates arbitrary surrounding prose; when several scores lines are
    present the last one wins. The line must carry exactly four unsigned
    finite decimal numbers, whitespace-separated.

    Raises:
        MalformedReply: no scores line, wrong arity, or a bad number. The
            exception carries the raw reply.
    """
    text = _as_text(reply)
    lines = [ln for ln in text.splitlines() if ln.lstrip().startswith("scores:")]
    if not lines:
        raise MalformedReply("no scores line found", reply=text)
    payload = lines[-1].lstrip()[len("scores:"):]
    tokens = payload.split()
    if len(tokens) != 4:
        raise MalformedReply(
            f"expected 4 scores, found {len(tokens)}", reply=text
        )
    values = []
    for tok in tokens:
        if not _NUMBER_RE.fullmatch(tok):
            raise MalformedReply(f"bad score token {tok!r}", reply=text)
        v = float(tok)
        if not math.isfinite(v):
            raise MalformedReply(f"non-finite score {tok!r}", reply=text)
        values.append(v)
    return (values[0], values[1], values[2], values[3])


def parse_coordinate_list(reply: str | bytes) -> CoordinateReply:
    """Extract waypoints from the last ``path:`` line of a reply.

    Accepts ``(x,y)`` pairs separated by whitespace. Cell validity and step
    adjacency are deliberately not checked here; the simulator validates
    executed paths so bad model output stays measurable.

    Raises:
        MalformedReply: no path line, an empty one, stray tokens on it, or a
            coordinate of more than 9 digits, too long to be a cell.
    """
    text = _as_text(reply)
    lines = [ln for ln in text.splitlines() if ln.lstrip().startswith("path:")]
    if not lines:
        raise MalformedReply("no path line found", reply=text)
    payload = lines[-1].lstrip()[len("path:"):]
    if not _PAIR_LINE_RE.fullmatch(payload):
        if re.search(r"\d{10}", payload):
            raise MalformedReply("path coordinate has more than 9 digits", reply=text)
        raise MalformedReply(
            "path line must be whitespace-separated (x,y) pairs", reply=text
        )
    return CoordinateReply(tuple(GridPose(int(x), int(y)) for x, y in _PAIR_RE.findall(payload)))


def format_coordinate_list(waypoints: Sequence[GridPose]) -> str:
    """Render a path reply line (inverse of parse_coordinate_list)."""
    if not waypoints:
        raise ValueError("waypoint list must be non-empty")
    return "path: " + " ".join(f"({p[0]},{p[1]})" for p in waypoints)
