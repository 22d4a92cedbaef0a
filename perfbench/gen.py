"""Input generation and the in-process chat endpoint.

Nothing here imports gridground: maps, obstacle placement and model replies
come from this module's own RNG and BFS, so a change to the program cannot
change the workload it is measured on.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import deque

_FREE_BYTES = bytes.maketrans(b".#?RG", b"\x01\x00\x00\x01\x01")


def rng_for(*parts) -> random.Random:
    """A deterministic RNG keyed by the given parts (never by hash())."""
    key = "|".join(str(p) for p in parts).encode("utf-8")
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


# --- grids as lists of row strings -----------------------------------------


def map_text(rows: list[str]) -> str:
    return f"{len(rows[0])} {len(rows)} 1.0\n" + "\n".join(rows) + "\n"


def parse_map_text(text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    return lines[1:]


def bfs(rows: list[str], src: tuple[int, int], blocked: frozenset = frozenset()) -> list[int]:
    """4-connected hop counts from src, row-major; -1 marks unreachable.

    ``blocked`` holds extra (x, y) cells treated as occupied. Every map this
    module makes or reads has a blocked border, which lets the search skip
    bounds checks; a map without one is rejected.
    """
    h, w = len(rows), len(rows[0])
    if rows[0].strip("#?") or rows[-1].strip("#?") or any(r[0] not in "#?" or r[-1] not in "#?" for r in rows):
        raise ValueError("bfs needs a map with a blocked border")
    free = bytearray("".join(rows).encode("ascii").translate(_FREE_BYTES))
    for x, y in blocked:
        free[y * w + x] = 0
    dist = [-1] * (w * h)
    s = src[1] * w + src[0]
    if not free[s]:
        return dist
    dist[s] = 0
    q = deque([s])
    pop, push = q.popleft, q.append
    while q:
        i = pop()
        d = dist[i] + 1
        for j in (i - w, i + 1, i - 1, i + w):
            if free[j] and dist[j] < 0:
                dist[j] = d
                push(j)
    return dist


def random_rows(rng: random.Random, width: int, height: int, density: float) -> list[str]:
    """Random interior noise inside a solid border."""
    rows = ["#" * width]
    for _ in range(height - 2):
        rows.append("#" + "".join("#" if rng.random() < density else "." for _ in range(width - 2)) + "#")
    rows.append("#" * width)
    return rows


def set_cell(rows: list[str], x: int, y: int, ch: str) -> None:
    rows[y] = rows[y][:x] + ch + rows[y][x + 1:]


def clear_around(rows: list[str], x: int, y: int, r: int = 1) -> None:
    for yy in range(y - r, y + r + 1):
        for xx in range(x - r, x + r + 1):
            if 0 < xx < len(rows[0]) - 1 and 0 < yy < len(rows) - 1:
                set_cell(rows, xx, yy, ".")


def accepted_draw(rng: random.Random, draw, *args):
    """Call ``draw(rng, *args)`` until it returns a value; return (value, state).

    ``state`` is the RNG state the accepted draw started from, so setting it
    and calling ``draw`` once more repeats that draw without the rejected
    ones before it.
    """
    while True:
        state = rng.getstate()
        value = draw(rng, *args)
        if value is not None:
            return value, state


def redraw(state, draw, *args):
    """Repeat the draw that started from RNG ``state`` (see accepted_draw)."""
    rng = random.Random()
    rng.setstate(state)
    return draw(rng, *args)


def open_map_draw(rng: random.Random, size: int, density: float = 0.2):
    """A random map with start and goal near opposite corners, or None if they are not connected."""
    rows = random_rows(rng, size, size, density)
    start, goal = (1 + rng.randrange(3), 1 + rng.randrange(3)), (size - 2 - rng.randrange(3), size - 2 - rng.randrange(3))
    clear_around(rows, *start)
    clear_around(rows, *goal)
    if bfs(rows, start)[goal[1] * size + goal[0]] > 0:
        return rows, start, goal
    return None


def open_map(rng: random.Random, size: int, density: float = 0.2) -> tuple[list[str], tuple, tuple]:
    """The first connected ``open_map_draw``."""
    return accepted_draw(rng, open_map_draw, size, density)[0]


def walled_draw(rng: random.Random, size: int, walls: int, decoy: bool, density: float = 0.2):
    """A random map crossed by ``walls`` horizontal walls with two doors each.

    Returns (rows, start, goal, obstacles), where obstacles is a list of
    ((x, y), appears_at_step), or None when the draw does not qualify. With
    decoy=False each obstacle closes the door that every shortest route
    through its wall uses at that point of the walk, so any optimal planner
    must replan once per obstacle. With decoy=True the obstacles sit in the
    other doors, off every shortest route, so they may be sensed but never
    force a replan.
    """
    drawn = open_map_draw(rng, size, density)
    if drawn is None:
        return None
    rows, start, goal = drawn
    gap = (size - 2) // (walls + 1)
    wall_ys = [1 + gap * (k + 1) + rng.randrange(-2, 3) for k in range(walls)]
    doors = []
    for wy in wall_ys:
        rows[wy] = "#" * size
        a, b = rng.sample(range(2, size - 2), 2)
        for dx in (a, b):
            set_cell(rows, dx, wy, ".")
            set_cell(rows, dx, wy - 1, ".")
            set_cell(rows, dx, wy + 1, ".")
        doors.append(((a, wy), (b, wy)))
    placed = _place_on_doors(rows, start, goal, doors, decoy)
    return None if placed is None else (rows, start, goal, placed)


def _place_on_doors(rows, start, goal, doors, decoy):
    w = len(rows[0])
    from_start = bfs(rows, start)
    from_goal = bfs(rows, goal)
    blocked: set = set()
    origin = start
    obstacles = []
    for a, b in doors:
        if blocked:
            d_o = bfs(rows, origin, frozenset(blocked))
            d_g = bfs(rows, goal, frozenset(blocked))
        else:
            d_o, d_g = from_start, from_goal
        total = d_o[goal[1] * w + goal[0]]
        if total < 0:
            return None
        via = [d_o[c[1] * w + c[0]] + d_g[c[1] * w + c[0]] if d_o[c[1] * w + c[0]] >= 0 and d_g[c[1] * w + c[0]] >= 0 else None for c in (a, b)]
        if None in via or via[0] == via[1]:
            return None  # need one strictly shorter door so every shortest route agrees
        near, far = (a, b) if via[0] < via[1] else (b, a)
        cell = far if decoy else near
        d_s = from_start[cell[1] * w + cell[0]]
        if d_s < 5:
            return None
        # the robot cannot reach a cell before tick d_s, so appearing earlier
        # than that lets sensing see it first and the planner route around it
        obstacles.append((cell, max(1, d_s - 3 - len(obstacles) % 3)))
        if not decoy:
            blocked.add(near)
            origin = far  # after the detour the walk continues from the other door
    if bfs(rows, start, frozenset(c for c, _ in obstacles))[goal[1] * w + goal[0]] < 0:
        return None
    return obstacles


def shortest_path(rows: list[str], start, goal) -> list[tuple[int, int]]:
    """One shortest 4-connected route by descending the goal's BFS field."""
    w = len(rows[0])
    dist = bfs(rows, goal)
    x, y = start
    path = [(x, y)]
    while (x, y) != tuple(goal):
        d = dist[y * w + x]
        for nx, ny in ((x, y - 1), (x + 1, y), (x - 1, y), (x, y + 1)):
            if 0 <= nx < w and 0 <= ny < len(rows) and dist[ny * w + nx] == d - 1:
                x, y = nx, ny
                break
        path.append((x, y))
    return path


# --- the chat endpoint -------------------------------------------------------

_MAP_HEADER = re.compile(r"^map (\d+)x(\d+)$", re.M)
_CAND = re.compile(r"^\s+(up|right|left|down) -> \((-?\d+),(-?\d+)\)$", re.M)
_TRANSIENT = ((429, "rate limited"), (503, "service unavailable"))


class Endpoint:
    """An in-process stand-in for a chat-completions model.

    Reads the map block out of the prompt text like a model would, answers
    step prompts with shortest-route scores and fullpath prompts with a
    shortest route, both computed by this module's own BFS, and writes its
    own reply JSON. A seeded share of first and second attempts gets a
    transient 429 or 503 instead, which exercises the client's retry path.
    """

    KEEP = 512

    def __init__(self, seed: int, transient_share: float = 0.08):
        self.seed = seed
        self.transient_share = transient_share
        self.fields: dict = {}
        self.attempts: dict[str, int] = {}
        self.calls = 0
        self.transients = 0
        self.request_bytes: list[int] = []  # prompt bytes of every answered request
        # the first KEEP answered requests and replies, for replays
        self.replies: list[tuple[str, str]] = []  # (kind, content)
        self.bodies: list[dict] = []

    def new_episode(self) -> None:
        """Forget cached fields and attempt counts, so each episode replies the same way every time."""
        self.fields.clear()
        self.attempts.clear()

    def __call__(self, url: str, headers: dict, body: dict, timeout: float) -> tuple[int, str]:
        self.calls += 1
        user = body["messages"][-1]["content"]
        key = sha(user)
        attempt = self.attempts.get(key, 0)
        self.attempts[key] = attempt + 1
        if attempt < 2 and rng_for(self.seed, key, attempt).random() < self.transient_share:
            status, msg = _TRANSIENT[attempt]
            self.transients += 1
            return status, json.dumps({"error": {"message": msg}})
        m = _MAP_HEADER.search(user)
        w, h = int(m.group(1)), int(m.group(2))
        rows = user[m.end() + 1:].split("\n", h)[:h]
        robot = goal = None
        for y, row in enumerate(rows):
            if "R" in row:
                robot = (row.index("R"), y)
            if "G" in row:
                goal = (row.index("G"), y)
        plain = [r.replace("R", ".").replace("G", ".") for r in rows]
        fkey = (sha("\n".join(plain)), goal)
        dist = self.fields.get(fkey)
        if dist is None:
            dist = self.fields[fkey] = bfs(plain, goal)
        if "Candidate moves:" in user:
            here = dist[robot[1] * w + robot[0]]
            scores = []
            for _, cx, cy in _CAND.findall(user):
                cx, cy = int(cx), int(cy)
                d = dist[cy * w + cx] if 0 <= cx < w and 0 <= cy < h else -1
                scores.append(0.0 if d < 0 else 0.92 if d == here - 1 else 0.04)
            content = "scores: " + " ".join(f"{s:.2f}" for s in scores)
            kind = "step"
        else:
            route = shortest_path(plain, robot, goal)
            content = "path: " + " ".join(f"({x},{y})" for x, y in route)
            kind = "fullpath"
        self.request_bytes.append(sum(len(m["content"].encode()) for m in body["messages"]))
        if len(self.bodies) < self.KEEP:
            self.replies.append((kind, content))
            self.bodies.append(body)
        reply = (
            '{"id": "perfbench-%d", "object": "chat.completion", "choices": '
            '[{"index": 0, "message": {"role": "assistant", "content": %s}, '
            '"finish_reason": "stop"}]}' % (self.calls, json.dumps(content))
        )
        return 200, reply
