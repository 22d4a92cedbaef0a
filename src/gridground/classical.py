"""Classical grid planners: A* and RRT, plus the path measure they share.

A* and the RRT free-space checks run on the grid's flat free mask through the
gridmap helpers.

Costs are measured in cells: 1 per cardinal step, sqrt(2) per diagonal step.
path_length(waypoints, resolution) converts a pose sequence to meters.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import count, starmap
from operator import index
from typing import NamedTuple

from .errors import InvalidEndpoint, InvalidParams
from .gridmap import DIAGONAL_DELTAS, FOUR_DELTAS, Connectivity, GridPose, OccupancyGrid, as_connectivity

SQRT2 = math.sqrt(2.0)


class PlannedPath(NamedTuple):
    """A sequence of grid waypoints plus the resolution they were planned at."""

    waypoints: tuple[GridPose, ...]
    resolution: float


def path_length(waypoints: Sequence[GridPose], resolution: float) -> float:
    """Sum of Euclidean segment lengths in meters; 0.0 for fewer than two waypoints."""
    total = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        total += math.hypot(b[0] - a[0], b[1] - a[1])
    return total * resolution


def check_endpoints(grid: OccupancyGrid, start: GridPose, goal: GridPose) -> tuple[GridPose, GridPose]:
    """start and goal as GridPoses of ints; each coordinate may be anything ``operator.index`` takes.

    Raises:
        InvalidEndpoint: either is not two integers naming a free in-bounds cell.
    """
    return _endpoint(grid, "start", start), _endpoint(grid, "goal", goal)


def _endpoint(grid: OccupancyGrid, name: str, p) -> GridPose:
    try:
        x, y = p
        x, y = index(x), index(y)
    except (TypeError, ValueError):  # not two items, or an item that is no integer
        raise InvalidEndpoint(f"{name} must be a pair of integers, got {p!r}") from None
    if not grid.in_bounds(x, y):
        raise InvalidEndpoint(f"{name} ({x},{y}) outside {grid.width}x{grid.height} grid")
    if not grid.is_free(x, y):
        raise InvalidEndpoint(f"{name} ({x},{y}) is not a free cell")
    return GridPose(x, y)


def astar(
    grid: OccupancyGrid,
    start: GridPose,
    goal: GridPose,
    connectivity: Connectivity | int = Connectivity.FOUR,
) -> PlannedPath | None:
    """Deterministic A* over the grid.

    Uses the Manhattan heuristic under four-connectivity and the octile
    heuristic under eight-connectivity; both are admissible for the step
    costs above. Open-list ties break on lowest f, then lowest h, then
    insertion order, which makes repeated runs byte-identical.

    connectivity may be a Connectivity member or its value, 4 or 8.

    Under four-connectivity every cost is an integer, so each open-list
    entry is one int, ``(f * H + h) * T + tick``, with H above any h and T
    above the number of ticks: it pops in exactly that order, and the node
    comes back from a list indexed by tick. h is read from the grid's
    Manhattan table, which is shared by every grid of the same shape and
    goal. Each expansion of a node keyed (f, h) then dives: the first child
    at h - 1, which keeps f, is expanded next without a heap push or pop.
    That child takes its tick like any other, and it is the least key the
    open list would hold: every open entry is at least (f, h) when a node
    is expanded, a dived node included, and the node's other children come
    later in tick order or at f + 2. Nor is it closed: its cost was just
    lowered, and a closed node's cost is already least. So nodes are
    expanded in the same (f, h, tick) order as with every child pushed.
    Each cell keeps, in one byte, which of the four steps last lowered its
    cost, so the search allocates no per-cell parent list or dict.
    Eight-connected costs are irrational, so that search keeps float
    ``(f, h, tick)`` tuples and pushes every child.

    Returns:
        The optimal path, or None when the goal is unreachable.

    Raises:
        InvalidParams: connectivity is neither a Connectivity member nor 4 or 8.
        InvalidEndpoint: start or goal out of bounds or not Free.
    """
    connectivity = as_connectivity(connectivity)
    start, goal = check_endpoints(grid, start, goal)
    if start == goal:
        return PlannedPath((start,), grid.resolution)
    search = _search_four if connectivity is Connectivity.FOUR else _search_eight
    parent = search(grid, start, goal)
    if parent is None:
        return None
    # nodes are free_mask indices; parent maps every node of the path but the start to its predecessor
    src = grid.flat_index(*start)
    path = [grid.flat_index(*goal)]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return PlannedPath(tuple(grid.flat_pose(i) for i in reversed(path)), grid.resolution)


def _search_four(grid: OccupancyGrid, start: GridPose, goal: GridPose) -> dict[int, int] | None:
    mask, h = grid.free_mask, grid.manhattan_to(goal)
    offsets = grid.flat_offsets[:4]
    up, right, left, down = offsets
    src, dst = grid.flat_index(*start), grid.flat_index(*goal)
    n = len(mask)
    H = grid.width + grid.height + 2  # above any h
    T = 4 * n + 2  # above the number of ticks: at most one per expanded neighbour
    g = [n] * n  # n is above any path cost
    g[src] = 0
    via = bytearray(n)  # via[i]: index in offsets of the step that last lowered g[i]
    closed = bytearray(n)
    nodes = [src]  # nodes[tick]: the node that took that tick
    open_heap = [(h[src] * H + h[src]) * T]
    heappush, heappop = heapq.heappush, heapq.heappop
    # A step changes h by exactly 1, so a child of a node keyed (f, h) is keyed
    # (f, h - 1) or (f + 2, h + 1): `near` + tick or `near` + `rise` + tick.
    rise = (2 * H + 2) * T

    while open_heap:
        key = heappop(open_heap)
        tick = key % T
        cur = nodes[tick]
        if closed[cur]:
            continue
        near = key - tick - T  # (f * H + h - 1) * T: a node's first pop is its last push
        while cur >= 0:  # expand cur, then the child it dives into, if any
            closed[cur] = 1
            if cur == dst:
                parent = {}
                while cur != src:
                    parent[cur] = prev = cur - offsets[via[cur]]
                    cur = prev
                return parent
            hc = h[cur]
            ng = g[cur] + 1
            dive = -1
            # the four neighbours in offsets order, unrolled. The Manhattan heuristic
            # is consistent, so a closed nb already holds its least cost and fails
            # ng < g[nb] without a closed check
            nb = cur + up  # the first block, so dive is still -1 here
            if mask[nb] and ng < g[nb]:
                g[nb] = ng
                via[nb] = 0
                if h[nb] > hc:
                    heappush(open_heap, near + rise + len(nodes))
                else:
                    dive = nb
                nodes.append(nb)
            nb = cur + right
            if mask[nb] and ng < g[nb]:
                g[nb] = ng
                via[nb] = 1
                if h[nb] > hc:
                    heappush(open_heap, near + rise + len(nodes))
                elif dive < 0:
                    dive = nb
                else:
                    heappush(open_heap, near + len(nodes))
                nodes.append(nb)
            nb = cur + left
            if mask[nb] and ng < g[nb]:
                g[nb] = ng
                via[nb] = 2
                if h[nb] > hc:
                    heappush(open_heap, near + rise + len(nodes))
                elif dive < 0:
                    dive = nb
                else:
                    heappush(open_heap, near + len(nodes))
                nodes.append(nb)
            nb = cur + down
            if mask[nb] and ng < g[nb]:
                g[nb] = ng
                via[nb] = 3
                if h[nb] > hc:
                    heappush(open_heap, near + rise + len(nodes))
                elif dive < 0:
                    dive = nb
                else:
                    heappush(open_heap, near + len(nodes))
                nodes.append(nb)
            cur = dive
            near -= T  # the dived child is keyed (f, h - 1)
    return None


def _search_eight(grid: OccupancyGrid, start: GridPose, goal: GridPose) -> dict[int, int] | None:
    # each heap entry carries its node's (x, y) after the (f, h, tick) key, which alone decides the order
    gx, gy = goal

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
            return parent
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


# --- RRT ---


MAX_RRT_ITERATIONS = 100_000  # RrtParams.max_iterations; a search may sweep the whole tree


class RrtParams(NamedTuple):
    """Tuning knobs for rrt; defaults follow the documented contract."""

    step_size: float = 3.0
    goal_bias: float = 0.05
    max_iterations: int = 5000
    goal_tolerance: float = 1.0
    seed: int = 0


class RrtTree:
    """Grown tree exposed for edge-level inspection in tests.

    accepted is the index of the node that reached the goal region, None
    until one does.
    """

    def __init__(self, points: list[tuple[float, float]], parents: list[int], accepted: int | None):
        self.points, self.parents, self.accepted = points, parents, accepted


Point = tuple[float, float]


def _center(c: GridPose) -> Point:
    return (c[0] + 0.5, c[1] + 0.5)


def _traverse(p0: Point, p1: Point, supercover: bool) -> Iterator[tuple[int, int]]:
    # Amanatides-Woo grid walk. With supercover=True an exact corner
    # crossing contributes both side cells (every touched cell appears);
    # otherwise the walk steps x first so consecutive cells stay 4-adjacent.
    x, y = math.floor(p0[0]), math.floor(p0[1])
    xe, ye = math.floor(p1[0]), math.floor(p1[1])
    yield x, y
    if x == xe and y == ye:
        return  # most RRT edges in a crowded tree stay in one cell
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    step_x = 1 if dx > 0 else -1 if dx < 0 else 0
    step_y = 1 if dy > 0 else -1 if dy < 0 else 0
    if step_x > 0:
        t_max_x = (x + 1 - p0[0]) / dx
    elif step_x < 0:
        t_max_x = (x - p0[0]) / dx
    else:
        t_max_x = math.inf
    if step_y > 0:
        t_max_y = (y + 1 - p0[1]) / dy
    elif step_y < 0:
        t_max_y = (y - p0[1]) / dy
    else:
        t_max_y = math.inf
    t_delta_x = abs(1.0 / dx) if dx else math.inf
    t_delta_y = abs(1.0 / dy) if dy else math.inf

    for _ in range(abs(xe - x) + abs(ye - y) + 4):
        if x == xe and y == ye:
            return
        if t_max_x >= 1.0 and t_max_y >= 1.0:
            break  # next crossing sits at or past the endpoint
        if t_max_x < t_max_y:
            x += step_x
            t_max_x += t_delta_x
        elif t_max_y < t_max_x:
            y += step_y
            t_max_y += t_delta_y
        else:
            # exact corner crossing
            yield x + step_x, y
            if supercover:
                yield x, y + step_y
            x += step_x
            y += step_y
            t_max_x += t_delta_x
            t_max_y += t_delta_y
        yield x, y
    if x != xe or y != ye:
        # Endpoint lies exactly on a boundary of the current cell; its floor
        # cell was never entered by a crossing below t=1. Bridge to it, going
        # through the x-side cell first when the endpoint is a corner so the
        # non-supercover walk stays 4-adjacent.
        if x != xe and y != ye:
            yield xe, y
            if supercover:
                yield x, ye
        yield xe, ye


def supercover_cells(p0: Point, p1: Point) -> list[GridPose]:
    """Every cell the segment touches, side cells included at corner crossings."""
    return list(starmap(GridPose, _traverse(p0, p1, supercover=True)))


def chain_cells(p0: Point, p1: Point) -> list[GridPose]:
    """Cells along the segment as a 4-adjacent chain (subset of the supercover)."""
    return list(starmap(GridPose, _traverse(p0, p1, supercover=False)))


def _edge_free(grid: OccupancyGrid, p0: Point, p1: Point) -> bool:
    # p0 and p1 lie in [0, width] x [0, height], so each cell is on the map or
    # its pad; the walk stops at the first blocked cell
    mask, base, row = grid.free_mask, grid.flat_index(0, 0), grid.flat_offsets[3]
    x, y = math.floor(p0[0]), math.floor(p0[1])
    if x == math.floor(p1[0]) and y == math.floor(p1[1]):
        return mask[base + y * row + x] == 1  # the supercover is this one cell
    for x, y in _traverse(p0, p1, supercover=True):
        if not mask[base + y * row + x]:
            return False
    return True


class _NodeSweep:
    """Tree nodes sorted along one axis for nearest-node queries.

    keys holds each node's coordinate on `axis` in ascending order, equal
    keys in index order; cross and ids hold each node's other coordinate
    and its index at the same positions.
    """

    def __init__(self, axis: int, points: list[Point]):
        self.axis = axis
        self.points = points  # the tree's own list; add(i) files its node i
        self.keys: list[float] = []
        self.cross: list[float] = []
        self.ids: list[int] = []
        for i in range(len(points)):
            self.add(i)

    def add(self, i: int) -> None:
        p = self.points[i]
        k = bisect_right(self.keys, p[self.axis])  # nodes come in index order
        self.keys.insert(k, p[self.axis])
        self.cross.insert(k, p[1 - self.axis])
        self.ids.insert(k, i)

    def nearest(self, target: Point) -> tuple[int, float]:
        """Index of the node nearest target and its distance; ties go to the lowest index.

        The sweep starts at the node whose key is nearest target's and moves
        outward on each side until the key gap alone exceeds the best
        distance. A node whose cross gap exceeds it is passed over without
        computing its distance. Both bounds carry a slack of 1e-9 against
        rounding, so every node as near as the best one is compared: the
        result is that of a scan of every node.
        """
        keys, cross, ids, points, dist = self.keys, self.cross, self.ids, self.points, math.dist
        tk, tc = target[self.axis], target[1 - self.axis]
        j = bisect_left(keys, tk)
        if j == len(keys) or (j and tk - keys[j - 1] < keys[j] - tk):
            j -= 1
        best_i = ids[j]
        best_d = dist(points[best_i], target)
        reach = best_d + 1e-9
        for k in range(j + 1, len(keys)):
            if keys[k] - tk > reach:
                break
            if abs(cross[k] - tc) <= reach:
                i = ids[k]
                d = dist(points[i], target)
                if d < best_d or (d == best_d and i < best_i):
                    best_i, best_d, reach = i, d, d + 1e-9
        for k in range(j - 1, -1, -1):
            if tk - keys[k] > reach:
                break
            if abs(cross[k] - tc) <= reach:
                i = ids[k]
                d = dist(points[i], target)
                if d < best_d or (d == best_d and i < best_i):
                    best_i, best_d, reach = i, d, d + 1e-9
        return best_i, best_d


def grow_rrt_tree(
    grid: OccupancyGrid, start: GridPose, goal: GridPose, params: RrtParams
) -> RrtTree:
    """Grow the tree until a node lands in the goal region or iterations run out.

    One RNG stream seeded from params.seed is consumed in a fixed order per
    iteration: the free-space sample (x then y per rejection attempt), then
    the goal-bias coin. Every accepted edge passes the supercover check.
    Each target extends its nearest node: least Euclidean distance, ties to
    the lowest node index, with the same result as a scan of every node. It
    is found by a sweep over the nodes sorted along the map's longer side,
    except for the goal, whose nearest node the tree keeps as it grows.
    """
    for name in ("step_size", "goal_bias", "goal_tolerance"):  # a str or None would fail a comparison below
        if not isinstance(value := getattr(params, name), (int, float)):
            raise InvalidParams(f"{name} must be a number, got {value!r}")
    if not (0 < params.step_size < math.inf):
        raise InvalidParams(f"step_size must be finite and > 0, got {params.step_size}")
    if not (0.0 <= params.goal_bias <= 1.0):
        raise InvalidParams(f"goal_bias must be in [0, 1], got {params.goal_bias}")
    n = params.max_iterations
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_RRT_ITERATIONS:
        raise InvalidParams(f"max_iterations must be an integer from 1 to {MAX_RRT_ITERATIONS}, got {n!r}")
    if not (params.goal_tolerance >= 0):
        raise InvalidParams(f"goal_tolerance must be >= 0, got {params.goal_tolerance}")
    start, goal = check_endpoints(grid, start, goal)

    rng = random.Random(params.seed)
    goal_c = _center(goal)
    tree = RrtTree(points=[_center(start)], parents=[-1], accepted=None)
    # a start in the goal region, start == goal among them, is the tree's only node
    if math.dist(tree.points[0], goal_c) <= params.goal_tolerance and _edge_free(
        grid, tree.points[0], goal_c
    ):
        tree.accepted = 0
        return tree

    index = _NodeSweep(0 if grid.width >= grid.height else 1, tree.points)
    nearest, add, points, parents = index.nearest, index.add, tree.points, tree.parents
    step, bias, tolerance = params.step_size, params.goal_bias, params.goal_tolerance
    mask, base, row = grid.free_mask, grid.flat_index(0, 0), grid.flat_offsets[3]
    width, height, rand, floor, dist = grid.width, grid.height, rng.random, math.floor, math.dist
    # the node nearest goal_c and its distance, which a goal-biased target
    # extends; replaced only by a strictly nearer node, so ties keep the lowest index
    goal_i, goal_d = 0, dist(points[0], goal_c)
    for _ in range(params.max_iterations):
        while True:
            # rng.uniform(0.0, w) is 0.0 + w * random(): the same float from the same draw
            sx = width * rand()
            sy = height * rand()
            # 0 <= sx <= width and 0 <= sy <= height: the cell is on the map or its pad
            if mask[base + floor(sy) * row + floor(sx)]:
                break
        if rand() < bias:
            target, best_i, best_d = goal_c, goal_i, goal_d
        else:
            target = (sx, sy)
            best_i, best_d = nearest(target)
        if best_d < 1e-9:
            continue
        near = points[best_i]
        if best_d <= step:
            new_p = target
        else:
            f = step / best_d
            new_p = (near[0] + (target[0] - near[0]) * f, near[1] + (target[1] - near[1]) * f)
        if not _edge_free(grid, near, new_p):
            continue
        points.append(new_p)
        parents.append(best_i)
        add(len(points) - 1)
        d = dist(new_p, goal_c)
        if d <= tolerance and _edge_free(grid, new_p, goal_c):
            tree.accepted = len(points) - 1
            return tree
        if d < goal_d:
            goal_i, goal_d = len(points) - 1, d
    return tree


def rrt(
    grid: OccupancyGrid, start: GridPose, goal: GridPose, params: RrtParams | None = None
) -> PlannedPath | None:
    """Rapidly-exploring random tree planner, deterministic per seed.

    The winning branch is re-discretized into a 4-adjacent chain of free
    cells (at an exact corner crossing the chain steps through a side cell
    that the supercover check already proved free), so the result satisfies
    the same adjacency contract as four-connected A* output.

    Returns:
        A path from start to goal, or None when no tree node reached the
        goal region within max_iterations.
    """
    params = params or RrtParams()
    tree = grow_rrt_tree(grid, start, goal, params)
    if tree.accepted is None:
        return None
    start, goal = check_endpoints(grid, start, goal)  # as grow_rrt_tree read them
    branch: list[int] = []
    i = tree.accepted
    while i != -1:
        branch.append(i)
        i = tree.parents[i]
    branch.reverse()
    points = [tree.points[i] for i in branch] + [_center(goal)]

    waypoints: list[GridPose] = [start]
    for a, b in zip(points, points[1:]):
        for c in chain_cells(a, b):
            if c != waypoints[-1]:
                waypoints.append(c)
    return PlannedPath(tuple(waypoints), grid.resolution)
