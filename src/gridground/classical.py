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
from collections.abc import Iterator, Sequence
from itertools import count, repeat, starmap
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


def check_endpoints(grid: OccupancyGrid, start: GridPose, goal: GridPose) -> None:
    """Raise InvalidEndpoint unless start and goal are free in-bounds cells."""
    for name, p in (("start", start), ("goal", goal)):
        if not grid.in_bounds(p[0], p[1]):
            raise InvalidEndpoint(f"{name} ({p[0]},{p[1]}) outside {grid.width}x{grid.height} grid")
        if not grid.is_free(p[0], p[1]):
            raise InvalidEndpoint(f"{name} ({p[0]},{p[1]}) is not a free cell")


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
    check_endpoints(grid, start, goal)
    start, goal = GridPose(*start), GridPose(*goal)
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

# _NodeBuckets tuning (see its docstring). _SCAN_RATIO: one C-level pass over
# all n points beats looking up more than n / _SCAN_RATIO buckets one by one.
_NODES_PER_BUCKET = 6
_MAX_HALVINGS = 4
_SCAN_RATIO = 8


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


class _NodeBuckets:
    """Tree nodes hashed into square buckets for nearest-node queries.

    The side starts at `size` and halves, refiling every node, whenever the
    tree holds more than _NODES_PER_BUCKET nodes per occupied bucket, until
    it reaches size / 2**_MAX_HALVINGS. Each bucket lists its nodes in index
    order.
    """

    def __init__(self, size: float, points: list[Point]):
        self.size = size
        self.min_size = size / 2**_MAX_HALVINGS
        self.points = points  # the tree's own list; add(i) files its node i
        self.buckets: dict[tuple[int, int], list[int]] = {}
        for i in range(len(points)):
            self.add(i)

    def add(self, i: int) -> None:
        x, y = self.points[i]
        s = self.size
        self.buckets.setdefault((math.floor(x / s), math.floor(y / s)), []).append(i)
        while i >= _NODES_PER_BUCKET * len(self.buckets) and self.size > self.min_size:
            # O(i) per halving, and at most _MAX_HALVINGS of them per tree
            self.size = s = self.size / 2
            self.buckets = buckets = {}
            for j, (x, y) in enumerate(self.points[:i + 1]):
                buckets.setdefault((math.floor(x / s), math.floor(y / s)), []).append(j)

    def nearest(self, target: Point) -> tuple[int, float]:
        """Index of the node nearest target and its distance; ties go to the lowest index.

        Rings of buckets are scanned outward from target's bucket until no
        unscanned node can be as near as the best one found. A ring skips
        every bucket whose box lies farther than the best distance from
        target along x or along y. When target's own bucket already holds a
        node nearer than any past the first ring, only the side and corner
        buckets within reach are scanned. When the next ring would take the
        buckets looked up past n / _SCAN_RATIO for n nodes, one pass over all
        nodes ends the search instead, so a query costs O(n) whatever the side.
        """
        s, points, buckets = self.size, self.points, self.buckets
        floor, dist, get = math.floor, math.dist, buckets.get
        tx, ty = target
        cx, cy = floor(tx / s), floor(ty / s)
        # distances from target to the four sides of its own bucket; ring r
        # pushes every side of the scanned box r buckets further out
        west, east, north, south = tx - cx * s, (cx + 1) * s - tx, ty - cy * s, (cy + 1) * s - ty
        edge = min(west, east, north, south)
        best_i, best_d = -1, math.inf
        for i in get((cx, cy), ()):  # in index order: the first of equals wins
            d = dist(points[i], target)
            if d < best_d:
                best_i, best_d = i, d
        # here and in the ring loop: strict, with slack for rounding in
        # floor(x / s), as an unscanned node at exactly best_d might carry a lower index
        if best_d < edge + s - 1e-9:
            # no node past the first ring is as near; of that ring, a side
            # bucket can hold one only when its side lies within reach, and a
            # corner bucket only when both of its sides do
            reach = best_d + 1e-9
            keys = []
            if north <= reach:
                keys.append((cx, cy - 1))
            if south <= reach:
                keys.append((cx, cy + 1))
            if west <= reach:
                keys.append((cx - 1, cy))
                if north <= reach:
                    keys.append((cx - 1, cy - 1))
                if south <= reach:
                    keys.append((cx - 1, cy + 1))
            if east <= reach:
                keys.append((cx + 1, cy))
                if north <= reach:
                    keys.append((cx + 1, cy - 1))
                if south <= reach:
                    keys.append((cx + 1, cy + 1))
            for key in keys:
                for i in get(key, ()):
                    d = dist(points[i], target)
                    if d < best_d or (d == best_d and i < best_i):
                        best_i, best_d = i, d
            return best_i, best_d
        r = 1
        while best_d >= edge + (r - 1) * s - 1e-9:
            if _SCAN_RATIO * (2 * r + 1) ** 2 > len(points):
                ds = list(map(dist, points, repeat(target)))
                best_d = min(ds)
                return ds.index(best_d), best_d
            if best_d == math.inf:
                x0, x1, y0, y1 = cx - r, cx + r, cy - r, cy + r
            else:
                reach = best_d + 1e-9
                x0, x1 = max(cx - r, floor((tx - reach) / s)), min(cx + r, floor((tx + reach) / s))
                y0, y1 = max(cy - r, floor((ty - reach) / s)), min(cy + r, floor((ty + reach) / s))
            # the ring's rows and columns that survive the clip to [x0, x1] x [y0, y1]
            keys = []
            if y0 == cy - r:
                keys += [(x, y0) for x in range(x0, x1 + 1)]
            if y1 == cy + r:
                keys += [(x, y1) for x in range(x0, x1 + 1)]
            inner = range(max(y0, cy - r + 1), min(y1, cy + r - 1) + 1)
            if x0 == cx - r:
                keys += [(x0, y) for y in inner]
            if x1 == cx + r:
                keys += [(x1, y) for y in inner]
            for key in keys:
                for i in get(key, ()):
                    d = dist(points[i], target)
                    if d < best_d or (d == best_d and i < best_i):
                        best_i, best_d = i, d
            r += 1
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
    is found through buckets whose side starts at step_size and halves as
    the tree grows denser, down to a floor of step_size / 16, except for the
    goal, whose nearest node the tree keeps as it grows.
    """
    if not (0 < params.step_size < math.inf):
        raise InvalidParams(f"step_size must be finite and > 0, got {params.step_size}")
    if not (0.0 <= params.goal_bias <= 1.0):
        raise InvalidParams(f"goal_bias must be in [0, 1], got {params.goal_bias}")
    n = params.max_iterations
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParams(f"max_iterations must be an integer >= 1, got {n!r}")
    if not (params.goal_tolerance >= 0):
        raise InvalidParams(f"goal_tolerance must be >= 0, got {params.goal_tolerance}")
    check_endpoints(grid, start, goal)

    rng = random.Random(params.seed)
    goal_c = _center(GridPose(*goal))
    tree = RrtTree(points=[_center(GridPose(*start))], parents=[-1], accepted=None)
    # a start in the goal region, start == goal among them, is the tree's only node
    if math.dist(tree.points[0], goal_c) <= params.goal_tolerance and _edge_free(
        grid, tree.points[0], goal_c
    ):
        tree.accepted = 0
        return tree

    index = _NodeBuckets(params.step_size, tree.points)
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
    start, goal = GridPose(*start), GridPose(*goal)
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
